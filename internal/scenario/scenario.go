// Package scenario is the adversarial-workload harness: seeded, fully
// deterministic multivariate streams with exact contamination control,
// in the spirit of unquad's OnlineGenerator. A Generator cycles a
// pre-drawn pool of labelled instances — exactly ⌊p·P⌋ anomalies per
// pool of P, so *every* window of P consecutive instances carries
// exactly that many anomalies, and ExactAnomalyCount reports the
// ground-truth count for any prefix in O(1).
//
// On top of the base generator, composable injectors (transform.go)
// cover the drift taxonomy the related work evaluates — abrupt, gradual
// and recurring mean+covariance drift, seasonality, scale shifts,
// sensor dropout, burst contamination — plus client-side timing faults
// (timing.go). Scenarios compose like Dropout(Season(Drift(base))) and
// are describable by a compact spec string (spec.go):
//
//	dropout(season(drift(base(corpus=gauss,channels=4,p=0.02,pool=512),
//	        kind=abrupt,at=300,shift=3),period=200,amp=0.5),at=600,span=50,channels=1,mode=stuck)
//
// All randomness flows through internal/randstate.CountedSource and is
// consumed at construction time only, so two streams built from the
// same spec and seed replay bit-identically.
package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"streamad/internal/randstate"
)

// Stream is a deterministic, labelled, infinite vector stream. The
// vector returned by Next is owned by the stream and overwritten on the
// following call; copy it to retain it.
type Stream interface {
	// Next returns the next vector and its ground-truth anomaly label.
	Next() (vec []float64, anomalous bool)
	// Channels is the vector dimensionality.
	Channels() int
	// Scale is the per-channel magnitude reference (the std-dev of the
	// underlying normal pool); injectors size shifts and spikes in these
	// units so one spec works across corpora with different value ranges.
	Scale(c int) float64
	// ExactAnomalyCount returns exactly how many of the first n vectors
	// carry an anomalous label. It is exact, not an expectation: tests
	// compare it against observed labels one-for-one.
	ExactAnomalyCount(n int) int
}

// Generator is the pool-based base stream: a pre-drawn pool of P
// instances, exactly ⌊p·P⌋ of them anomalous, cycled forever. All pool
// rows and anomaly positions are drawn at construction, so Next touches
// no RNG and replays are bit-identical.
type Generator struct {
	pool     [][]float64
	labels   []bool
	prefix   []int // prefix[i] = anomalies among pool[:i]
	perCycle int   // anomalies per full pool cycle (= ⌊p·P⌋)
	scale    []float64
	out      []float64
	pos      int
}

// NewGenerator draws a pool of poolSize instances from the normal and
// anomaly source pools with exactly ⌊proportion·poolSize⌋ anomalies at
// seeded-random positions. Source rows are sampled with replacement, so
// small corpora still feed arbitrarily large pools.
func NewGenerator(normal, anomaly [][]float64, proportion float64, poolSize int, seed int64) (*Generator, error) {
	if poolSize <= 0 || poolSize > maxPoolValues {
		return nil, fmt.Errorf("scenario: pool size %d must be in [1, %d]", poolSize, maxPoolValues)
	}
	if proportion < 0 || proportion >= 1 || math.IsNaN(proportion) {
		return nil, fmt.Errorf("scenario: contamination proportion %v must be in [0, 1)", proportion)
	}
	if len(normal) == 0 {
		return nil, fmt.Errorf("scenario: empty normal pool")
	}
	k := int(proportion * float64(poolSize))
	if k > 0 && len(anomaly) == 0 {
		return nil, fmt.Errorf("scenario: contamination %v needs a non-empty anomaly pool", proportion)
	}
	ch := len(normal[0])
	for _, row := range normal {
		if len(row) != ch {
			return nil, fmt.Errorf("scenario: ragged normal pool (%d vs %d channels)", len(row), ch)
		}
	}
	for _, row := range anomaly {
		if len(row) != ch {
			return nil, fmt.Errorf("scenario: anomaly pool channel mismatch (%d vs %d)", len(row), ch)
		}
	}

	rng := rand.New(randstate.NewCountedSource(seed))
	g := &Generator{
		pool:     make([][]float64, poolSize),
		labels:   make([]bool, poolSize),
		prefix:   make([]int, poolSize+1),
		perCycle: k,
		out:      make([]float64, ch),
	}
	// Exactly k anomalous slots, position-shuffled: the first k entries
	// of a seeded permutation.
	for _, p := range rng.Perm(poolSize)[:k] {
		g.labels[p] = true
	}
	for i := 0; i < poolSize; i++ {
		src := normal
		if g.labels[i] {
			src = anomaly
		}
		g.pool[i] = src[rng.Intn(len(src))]
		g.prefix[i+1] = g.prefix[i] + b2i(g.labels[i])
	}
	g.scale = channelStd(normal)
	return g, nil
}

// Next returns the next pool instance (copied into the reusable output
// buffer) and its label.
func (g *Generator) Next() ([]float64, bool) {
	i := g.pos % len(g.pool)
	g.pos++
	copy(g.out, g.pool[i])
	return g.out, g.labels[i]
}

// Channels implements Stream.
func (g *Generator) Channels() int { return len(g.out) }

// Scale implements Stream.
func (g *Generator) Scale(c int) float64 { return g.scale[c] }

// ExactAnomalyCount implements Stream: full cycles contribute perCycle
// each, the remainder is a prefix lookup.
func (g *Generator) ExactAnomalyCount(n int) int {
	if n <= 0 {
		return 0
	}
	p := len(g.pool)
	return (n/p)*g.perCycle + g.prefix[n%p]
}

// PerCycleAnomalies returns ⌊p·P⌋: the exact anomaly count of every
// window of one full pool length.
func (g *Generator) PerCycleAnomalies() int { return g.perCycle }

// PoolSize returns the pool length P.
func (g *Generator) PoolSize() int { return len(g.pool) }

// channelStd returns the per-channel standard deviation of the pool
// (floored at a small epsilon so scale-relative injections stay finite
// on constant channels).
func channelStd(pool [][]float64) []float64 {
	if len(pool) == 0 {
		return nil
	}
	ch := len(pool[0])
	mean := make([]float64, ch)
	for _, row := range pool {
		for c, v := range row {
			mean[c] += v
		}
	}
	n := float64(len(pool))
	for c := range mean {
		mean[c] /= n
	}
	std := make([]float64, ch)
	for _, row := range pool {
		for c, v := range row {
			d := v - mean[c]
			std[c] += d * d
		}
	}
	for c := range std {
		std[c] = math.Sqrt(std[c] / n)
		if std[c] < 1e-9 {
			std[c] = 1e-9
		}
	}
	return std
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DeriveSeed mixes a parent seed with a component salt (FNV-1a over the
// salt, folded into the seed), so every layer of a composed scenario —
// and every stream of a fleet — draws from its own deterministic
// sub-stream without sharing RNG positions.
func DeriveSeed(seed int64, salt string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(salt))
	return int64(h.Sum64())
}
