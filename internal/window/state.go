package window

import "streamad/internal/wire"

// Walk implements wire.Walker: the capacity, then the contents oldest
// first, so the head index normalizes to zero on restore. The receiver's
// capacity must match the snapshot.
func (r *Ring) Walk(w *wire.Walk) {
	w.Expect("window: ring capacity", len(r.buf))
	n := w.Count(r.count, len(r.buf))
	if w.Decoding() {
		r.head, r.count = 0, n
	}
	tail := r.buf[r.head:min(r.head+n, len(r.buf))]
	w.RawFloat64s(tail)
	w.RawFloat64s(r.buf[:n-len(tail)])
}

// Walk implements wire.Walker: the geometry, then the stored vectors
// oldest first, row-major. The receiver's capacity and vector dimension
// must match the snapshot.
func (r *VecRing) Walk(w *wire.Walk) {
	w.Expect("window: vec ring (capacity, dim)", r.capacity, r.dim)
	n := w.Count(r.count, r.capacity)
	if w.Decoding() {
		if r.buf == nil {
			r.alloc() // paged out by Release; restore reallocates
		}
		r.head, r.count = 0, n
	}
	for i := 0; i < n; i++ {
		w.RawFloat64s(r.At(i))
	}
}
