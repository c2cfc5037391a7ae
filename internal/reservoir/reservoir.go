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
	// Cap returns the maximum number of stored vectors (m).
	Cap() int
}

// SlidingWindow keeps the m most recent feature vectors in arrival order.
// It is the only strategy that preserves stream contiguity, which the VAR
// model requires.
type SlidingWindow struct {
	m     int
	dim   int
	items [][]float64
	head  int
	count int
	// scratch for evicted copies
	evict []float64
}

// NewSlidingWindow returns a sliding window of capacity m over vectors of
// length dim.
func NewSlidingWindow(m, dim int) *SlidingWindow {
	if m <= 0 || dim <= 0 {
		panic("reservoir: m and dim must be positive")
	}
	s := &SlidingWindow{m: m, dim: dim}
	s.alloc()
	return s
}

// alloc (re)creates the contiguous backing storage.
func (s *SlidingWindow) alloc() {
	backing := make([]float64, s.m*s.dim)
	s.items = make([][]float64, s.m)
	for i := range s.items {
		s.items[i] = backing[i*s.dim : (i+1)*s.dim]
	}
	s.evict = make([]float64, s.dim)
}

// Release empties the window and frees its backing storage for warm-tier
// paging; UnmarshalBinary reallocates on restore.
func (s *SlidingWindow) Release() {
	s.items = nil
	s.evict = nil
	s.head = 0
	s.count = 0
}

// Observe implements TrainingSet.
func (s *SlidingWindow) Observe(x []float64, _ float64) Update {
	if len(x) != s.dim {
		panic("reservoir: dimension mismatch")
	}
	if s.count < s.m {
		copy(s.items[(s.head+s.count)%s.m], x)
		s.count++
		return Update{Kind: Added}
	}
	copy(s.evict, s.items[s.head])
	copy(s.items[s.head], x)
	s.head = (s.head + 1) % s.m
	return Update{Kind: Replaced, Evicted: s.evict}
}

// Items implements TrainingSet; vectors are returned oldest first.
func (s *SlidingWindow) Items() [][]float64 {
	out := make([][]float64, s.count)
	for i := 0; i < s.count; i++ {
		out[i] = s.items[(s.head+i)%s.m]
	}
	return out
}

// Len implements TrainingSet.
func (s *SlidingWindow) Len() int { return s.count }

// Cap implements TrainingSet.
func (s *SlidingWindow) Cap() int { return s.m }

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
// state, restored by UnmarshalBinary).
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

// Cap implements TrainingSet.
func (u *UniformReservoir) Cap() int { return u.m }

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

// Cap implements TrainingSet.
func (a *AnomalyAwareReservoir) Cap() int { return a.m }

// Release frees the heap entries and eviction scratch for warm-tier
// paging; UnmarshalBinary rebuilds both on restore.
func (a *AnomalyAwareReservoir) Release() {
	a.h.entries = nil
	a.evict = nil
}

// MinPriority returns the lowest priority currently held, or +Inf when the
// reservoir is empty. Exposed for tests and ablations.
func (a *AnomalyAwareReservoir) MinPriority() float64 {
	if a.h.Len() == 0 {
		return math.Inf(1)
	}
	return a.h.entries[0].p
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
