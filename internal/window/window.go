// Package window provides fixed-capacity ring buffers over scalars and over
// multivariate stream vectors. These back the data representation (the last
// w stream vectors), the sliding-window training set and the anomaly-score
// windows of the framework.
package window

// Ring is a fixed-capacity FIFO ring buffer of float64 scalars.
type Ring struct {
	buf   []float64
	head  int // index of the oldest element
	count int
}

// NewRing returns a ring with the given capacity (must be > 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("window: capacity must be positive")
	}
	return &Ring{buf: make([]float64, capacity)}
}

// Cap returns the fixed capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of stored elements.
func (r *Ring) Len() int { return r.count }

// Full reports whether the ring is at capacity.
func (r *Ring) Full() bool { return r.count == len(r.buf) }

// Push appends x, evicting the oldest element when full. It returns the
// evicted value and whether an eviction happened.
func (r *Ring) Push(x float64) (evicted float64, wasFull bool) {
	if r.count < len(r.buf) {
		r.buf[(r.head+r.count)%len(r.buf)] = x
		r.count++
		return 0, false
	}
	evicted = r.buf[r.head]
	r.buf[r.head] = x
	r.head = (r.head + 1) % len(r.buf)
	return evicted, true
}

// At returns the i-th element counted from the oldest (0 = oldest).
func (r *Ring) At(i int) float64 {
	if i < 0 || i >= r.count {
		panic("window: index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Last returns the most recent element; it panics on an empty ring.
func (r *Ring) Last() float64 {
	if r.count == 0 {
		panic("window: empty ring")
	}
	return r.At(r.count - 1)
}

// Slice copies the contents, oldest first, into a new slice.
func (r *Ring) Slice() []float64 {
	out := make([]float64, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.At(i)
	}
	return out
}

// CopyInto copies the contents, oldest first, into dst (which must have
// length ≥ Len) and returns the number of elements copied.
func (r *Ring) CopyInto(dst []float64) int {
	for i := 0; i < r.count; i++ {
		dst[i] = r.At(i)
	}
	return r.count
}

// Reset empties the ring without reallocating.
func (r *Ring) Reset() {
	r.head = 0
	r.count = 0
}

// VecRing is a fixed-capacity FIFO ring buffer of equal-length vectors.
// Pushed vectors are copied into internal storage, so callers may reuse
// their input slices.
type VecRing struct {
	dim      int
	capacity int // fixed logical capacity; survives Release
	buf      [][]float64
	head     int
	count    int
	evict    []float64 // reusable eviction-copy scratch, overwritten per push
}

// NewVecRing returns a ring holding up to capacity vectors of length dim.
func NewVecRing(capacity, dim int) *VecRing {
	if capacity <= 0 || dim <= 0 {
		panic("window: capacity and dim must be positive")
	}
	r := &VecRing{dim: dim, capacity: capacity}
	r.alloc()
	return r
}

// alloc (re)creates the backing storage at the fixed capacity.
func (r *VecRing) alloc() {
	buf := make([][]float64, r.capacity)
	backing := make([]float64, r.capacity*r.dim)
	for i := range buf {
		buf[i] = backing[i*r.dim : (i+1)*r.dim]
	}
	r.buf = buf
}

// Release empties the ring and frees its backing storage (the dominant
// per-stream memory for warm-tier paging). The capacity is remembered:
// UnmarshalBinary reallocates on restore. Push/At on a released ring
// panic — callers must page back in first.
func (r *VecRing) Release() {
	r.buf = nil
	r.evict = nil
	r.head = 0
	r.count = 0
}

// Released reports whether the backing storage has been freed.
func (r *VecRing) Released() bool { return r.buf == nil }

// Dim returns the vector length.
func (r *VecRing) Dim() int { return r.dim }

// Cap returns the fixed capacity.
func (r *VecRing) Cap() int { return r.capacity }

// Len returns the number of stored vectors.
func (r *VecRing) Len() int { return r.count }

// Full reports whether the ring is at capacity.
func (r *VecRing) Full() bool { return r.count == r.capacity }

// Push appends a copy of x, evicting the oldest vector when full. The
// returned evicted slice aliases internal storage and is only valid until
// the next Push; copy it if it must be retained.
func (r *VecRing) Push(x []float64) (evicted []float64, wasFull bool) {
	if len(x) != r.dim {
		panic("window: vector dimension mismatch")
	}
	if r.buf == nil {
		panic("window: push on released ring")
	}
	if r.count < len(r.buf) {
		copy(r.buf[(r.head+r.count)%len(r.buf)], x)
		r.count++
		return nil, false
	}
	slot := r.buf[r.head]
	// The caller sees the pre-overwrite contents; a single reusable
	// scratch keeps the steady-state push allocation-free.
	if r.evict == nil {
		r.evict = make([]float64, r.dim)
	}
	copy(r.evict, slot)
	copy(slot, x)
	r.head = (r.head + 1) % len(r.buf)
	return r.evict, true
}

// At returns the i-th vector counted from the oldest (0 = oldest). The
// returned slice aliases internal storage; do not modify it.
func (r *VecRing) At(i int) []float64 {
	if i < 0 || i >= r.count {
		panic("window: index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Last returns the most recent vector; it panics on an empty ring.
func (r *VecRing) Last() []float64 {
	if r.count == 0 {
		panic("window: empty ring")
	}
	return r.At(r.count - 1)
}

// Snapshot copies all stored vectors, oldest first, into a new [][]float64.
func (r *VecRing) Snapshot() [][]float64 {
	out := make([][]float64, r.count)
	backing := make([]float64, r.count*r.dim)
	for i := 0; i < r.count; i++ {
		out[i] = backing[i*r.dim : (i+1)*r.dim]
		copy(out[i], r.At(i))
	}
	return out
}

// Flatten copies all stored vectors, oldest first, into one contiguous
// slice of length Len()*Dim().
func (r *VecRing) Flatten() []float64 {
	out := make([]float64, r.count*r.dim)
	for i := 0; i < r.count; i++ {
		copy(out[i*r.dim:(i+1)*r.dim], r.At(i))
	}
	return out
}

// Reset empties the ring without reallocating.
func (r *VecRing) Reset() {
	r.head = 0
	r.count = 0
}
