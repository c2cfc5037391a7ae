// Package reservoir implements the Task 1 learning strategies of the
// extended SAFARI framework: maintaining the training set R_train of
// feature vectors as the stream evolves.
//
// Three strategies are provided, following Calikus et al. and the paper:
//
//   - Sliding window (SW): keep the m most recent feature vectors.
//   - Uniform reservoir (URES): classic reservoir sampling; after the
//     reservoir fills, the newest vector replaces a uniformly random one
//     with probability m/t.
//   - Anomaly-aware reservoir (ARES): each vector gets a priority
//     p = u^(λ1/exp(−λ2·f)) with u ~ U[uMin,uMax]; vectors with lower
//     anomaly scores f get stochastically higher priorities and the
//     reservoir retains the highest-priority (most "normal") vectors.
package reservoir

import (
	"container/heap"
	"math"
	"math/rand"
)

// UpdateKind describes what a strategy did with an observed vector.
type UpdateKind int

const (
	// Skipped means the training set is unchanged.
	Skipped UpdateKind = iota
	// Added means the vector was appended (set was below capacity).
	Added
	// Replaced means the vector replaced an existing one.
	Replaced
)

// Update reports the effect of one Observe call. When Kind is Replaced,
// Evicted holds a copy of the removed feature vector.
type Update struct {
	Kind    UpdateKind
	Evicted []float64
}

// TrainingSet is a Task 1 strategy maintaining the reference training set.
type TrainingSet interface {
	// Observe offers feature vector x with anomaly score f (only ARES uses
	// f). The vector is copied; callers may reuse x.
	Observe(x []float64, f float64) Update
	// Items returns the current training set. The outer slice is freshly
	// allocated but the vectors alias internal storage; treat as read-only
	// and consume before the next Observe.
	Items() [][]float64
	// Len returns the current number of stored vectors.
	Len() int
}

// SlidingWindow keeps the m most recent feature vectors in arrival order.
// It is the only strategy that preserves stream contiguity, which the VAR
// model requires.
//
// Consecutive windows of one stream share all but their last row, so the
// vectors live in one log of values and each item is an offset into it.
// A vector whose first dim−row values equal the newest item's last
// dim−row values, bit for bit, appends its last row only; any other vector
// appends all dim values, so every vector is accepted.
type SlidingWindow struct {
	m, dim, row int
	// log holds the items' values; the live region runs from the oldest
	// item's offset to tail, where the newest item ends.
	log  []float64
	tail int
	// offs is the ring of item offsets into log, oldest at head.
	offs  []int
	head  int
	count int
	// scratch for evicted copies: a compaction may move the evicted rows
	evict []float64
}

// NewSlidingWindow returns a sliding window of capacity m over vectors of
// length dim whose consecutive windows advance by row values (the
// stream's channel count; dim stores every vector whole).
func NewSlidingWindow(m, dim, row int) *SlidingWindow {
	if m <= 0 || dim <= 0 || row <= 0 || row > dim {
		panic("reservoir: m and dim must be positive and row in [1, dim]")
	}
	s := &SlidingWindow{m: m, dim: dim, row: row}
	s.alloc()
	return s
}

// alloc (re)creates an empty log with room for twice the m windows of
// one stream, so a window that keeps sliding never grows it.
func (s *SlidingWindow) alloc() {
	s.log = make([]float64, 2*(s.dim+(s.m-1)*s.row))
	s.offs = make([]int, s.m)
	s.evict = make([]float64, s.dim)
}

// Release empties the window and frees its backing storage for warm-tier
// paging; decoding its Walk reallocates on restore.
func (s *SlidingWindow) Release() {
	s.log, s.offs, s.evict = nil, nil, nil
	s.head, s.count, s.tail = 0, 0, 0
}

// Observe implements TrainingSet.
func (s *SlidingWindow) Observe(x []float64, _ float64) Update {
	if len(x) != s.dim {
		panic("reservoir: dimension mismatch")
	}
	u := Update{Kind: Added}
	if s.count == s.m {
		copy(s.evict, s.item(0))
		s.head = (s.head + 1) % s.m
		s.count--
		u = Update{Kind: Replaced, Evicted: s.evict}
	}
	s.push(x)
	return u
}

// push appends x as the newest item, sharing the newest item's rows when
// x continues it. x may alias the log at tail (a decoded window).
func (s *SlidingWindow) push(x []float64) {
	shared := s.dim - s.row
	if s.count == 0 || !sameBits(x[:shared], s.log[s.tail-shared:s.tail]) {
		shared = 0
	}
	s.reserve(s.dim - shared)
	s.offs[(s.head+s.count)%s.m] = s.tail - shared
	s.tail += copy(s.log[s.tail:], x[shared:])
	s.count++
}

// reserve makes room for k values at the tail. A full log slides its live
// region to the front, and grows only when that region would fill more
// than half of it, so the copies cost O(1) per appended value and a
// window that keeps sliding allocates nothing.
func (s *SlidingWindow) reserve(k int) {
	if s.tail+k <= len(s.log) {
		return
	}
	start := s.tail
	if s.count > 0 {
		start = s.offs[s.head]
	}
	live := s.tail - start
	dst := s.log
	if 2*(live+k) > len(s.log) {
		dst = make([]float64, max(2*len(s.log), 2*(live+k)))
	}
	copy(dst, s.log[start:s.tail])
	s.log, s.tail = dst, live
	for i := range s.offs {
		s.offs[i] -= start
	}
}

// item returns the i-th oldest item as a view into the log.
func (s *SlidingWindow) item(i int) []float64 {
	off := s.offs[(s.head+i)%s.m]
	return s.log[off : off+s.dim : off+s.dim]
}

// sameBits reports whether a and b[:len(a)] hold the same float64 bit
// patterns. It reads both whole, without a branch per value.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	var diff uint64
	for i, v := range a {
		diff |= math.Float64bits(v) ^ math.Float64bits(b[i])
	}
	return diff == 0
}

// Items implements TrainingSet; vectors are returned oldest first, as
// read-only views that share rows with each other.
func (s *SlidingWindow) Items() [][]float64 {
	out := make([][]float64, s.count)
	for i := range out {
		out[i] = s.item(i)
	}
	return out
}

// Len implements TrainingSet.
func (s *SlidingWindow) Len() int { return s.count }

// UniformReservoir implements uniform reservoir sampling over the stream.
type UniformReservoir struct {
	m     int
	dim   int
	items [][]float64
	count int
	t     int        // total observations seen
	rng   *rand.Rand // caller-owned seeded RNG; its position checkpoints with the detector's counted source, not here
	evict []float64
}

// NewUniformReservoir returns a uniform reservoir of capacity m over
// vectors of length dim, driven by the given seeded RNG.
func NewUniformReservoir(m, dim int, rng *rand.Rand) *UniformReservoir {
	if m <= 0 || dim <= 0 {
		panic("reservoir: m and dim must be positive")
	}
	u := &UniformReservoir{m: m, dim: dim, rng: rng}
	u.alloc()
	return u
}

// alloc (re)creates the contiguous backing storage.
func (u *UniformReservoir) alloc() {
	backing := make([]float64, u.m*u.dim)
	u.items = make([][]float64, u.m)
	for i := range u.items {
		u.items[i] = backing[i*u.dim : (i+1)*u.dim]
	}
	u.evict = make([]float64, u.dim)
}

// Release empties the reservoir contents and frees the backing storage for
// warm-tier paging; the observation clock t is untouched (it is snapshot
// state, restored by its Walk).
func (u *UniformReservoir) Release() {
	u.items = nil
	u.evict = nil
	u.count = 0
}

// Observe implements TrainingSet.
func (u *UniformReservoir) Observe(x []float64, _ float64) Update {
	if len(x) != u.dim {
		panic("reservoir: dimension mismatch")
	}
	u.t++
	if u.count < u.m {
		copy(u.items[u.count], x)
		u.count++
		return Update{Kind: Added}
	}
	// Keep with probability m/t, replacing a uniformly random victim.
	if u.rng.Float64() < float64(u.m)/float64(u.t) {
		victim := u.rng.Intn(u.m)
		copy(u.evict, u.items[victim])
		copy(u.items[victim], x)
		return Update{Kind: Replaced, Evicted: u.evict}
	}
	return Update{Kind: Skipped}
}

// Items implements TrainingSet.
func (u *UniformReservoir) Items() [][]float64 {
	out := make([][]float64, u.count)
	copy(out, u.items[:u.count])
	return out
}

// Len implements TrainingSet.
func (u *UniformReservoir) Len() int { return u.count }

// AnomalyAwareReservoir retains the feature vectors with the highest
// priorities p = u^(λ1/exp(−λ2·f)). Because u < 1 and the exponent grows
// with the anomaly score f, normal vectors receive stochastically higher
// priorities and anomalous ones are evicted first.
type AnomalyAwareReservoir struct {
	m          int
	dim        int
	uMin, uMax float64    // priority-draw bounds fixed at construction (paper parameters)
	l1, l2     float64    // priority exponents fixed at construction (paper parameters)
	rng        *rand.Rand // caller-owned seeded RNG; its position checkpoints with the detector's counted source, not here
	h          priorityHeap
	evict      []float64
}

// DefaultARESParams are the paper's restricted parameters:
// u ∈ [0.7, 0.9], λ1 = λ2 = 3.
const (
	DefaultUMin    = 0.7
	DefaultUMax    = 0.9
	DefaultLambda1 = 3.0
	DefaultLambda2 = 3.0
)

// NewAnomalyAwareReservoir returns an ARES of capacity m over vectors of
// length dim with the paper's default parameters.
func NewAnomalyAwareReservoir(m, dim int, rng *rand.Rand) *AnomalyAwareReservoir {
	return NewAnomalyAwareReservoirParams(m, dim, rng, DefaultUMin, DefaultUMax, DefaultLambda1, DefaultLambda2)
}

// NewAnomalyAwareReservoirParams returns an ARES with explicit priority
// parameters, for ablation studies.
func NewAnomalyAwareReservoirParams(m, dim int, rng *rand.Rand, uMin, uMax, l1, l2 float64) *AnomalyAwareReservoir {
	if m <= 0 || dim <= 0 {
		panic("reservoir: m and dim must be positive")
	}
	if !(uMin > 0 && uMax < 1 && uMin <= uMax) {
		panic("reservoir: need 0 < uMin <= uMax < 1")
	}
	return &AnomalyAwareReservoir{
		m: m, dim: dim, uMin: uMin, uMax: uMax, l1: l1, l2: l2,
		rng:   rng,
		h:     priorityHeap{entries: make([]priorityEntry, 0, m)},
		evict: make([]float64, dim),
	}
}

// Priority computes p = u^(λ1/exp(−λ2·f)) for a freshly drawn u.
func (a *AnomalyAwareReservoir) Priority(f float64) float64 {
	u := a.uMin + (a.uMax-a.uMin)*a.rng.Float64()
	if math.IsNaN(f) {
		f = 1
	}
	exponent := a.l1 / math.Exp(-a.l2*f)
	return math.Pow(u, exponent)
}

// Observe implements TrainingSet.
func (a *AnomalyAwareReservoir) Observe(x []float64, f float64) Update {
	if len(x) != a.dim {
		panic("reservoir: dimension mismatch")
	}
	p := a.Priority(f)
	if a.h.Len() < a.m {
		v := make([]float64, a.dim)
		copy(v, x)
		heap.Push(&a.h, priorityEntry{p: p, vec: v})
		return Update{Kind: Added}
	}
	// Replace the global minimum-priority vector if it is strictly less
	// prioritized than the newcomer (the paper's c(ps, p_t) helper resolves
	// to the argmin of priorities below p_t).
	if a.h.entries[0].p < p {
		victim := &a.h.entries[0]
		copy(a.evict, victim.vec)
		copy(victim.vec, x)
		victim.p = p
		heap.Fix(&a.h, 0)
		return Update{Kind: Replaced, Evicted: a.evict}
	}
	return Update{Kind: Skipped}
}

// Items implements TrainingSet; order is heap order, not arrival order.
func (a *AnomalyAwareReservoir) Items() [][]float64 {
	out := make([][]float64, a.h.Len())
	for i := range a.h.entries {
		out[i] = a.h.entries[i].vec
	}
	return out
}

// Len implements TrainingSet.
func (a *AnomalyAwareReservoir) Len() int { return a.h.Len() }

// Release frees the heap entries and eviction scratch for warm-tier
// paging; decoding its Walk rebuilds both on restore.
func (a *AnomalyAwareReservoir) Release() {
	a.h.entries = nil
	a.evict = nil
}

type priorityEntry struct {
	p   float64
	vec []float64
}

type priorityHeap struct {
	entries []priorityEntry
}

func (h *priorityHeap) Len() int           { return len(h.entries) }
func (h *priorityHeap) Less(i, j int) bool { return h.entries[i].p < h.entries[j].p }
func (h *priorityHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *priorityHeap) Push(x interface{}) { h.entries = append(h.entries, x.(priorityEntry)) }
func (h *priorityHeap) Pop() interface{} {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	return e
}
