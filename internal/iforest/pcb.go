package iforest

import (
	"fmt"
	"math/rand"

	"streamad/internal/randstate"
)

// PCBForest is the performance-counter-based streaming isolation forest of
// Heigl et al. Every tree carries a counter pc_i that increases when the
// tree's individual verdict agrees with the forest's verdict and decreases
// otherwise. When the framework's drift detector fires, Fit discards all
// trees with pc_i ≤ 0, resets the counters of the survivors, and grows
// replacements from the current training set.
type PCBForest struct {
	trees     []*Tree
	counters  []int
	numTrees  int
	subsample int
	threshold float64
	channels  int
	src       *randstate.CountedSource
	rng       *rand.Rand // stateless wrapper over src, whose position Save/Load round-trips
	fitted    bool
	depths    []float64 // per-tree path lengths of the vector being scored
	// pruned and grown count the maintenance so far; checkpoints carry them.
	pruned, grown int
}

// Config parameterizes a PCB-iForest.
type Config struct {
	// Trees is the forest size (default 25, PCB-iForest's default).
	Trees int
	// Subsample is the per-tree build sample size (default 256, capped at
	// the training-set size).
	Subsample int
	// Threshold is the anomaly-score decision boundary used for the
	// performance counters (default 0.5).
	Threshold float64
	// Channels is the stream dimensionality N.
	Channels int
	// Seed drives tree construction.
	Seed int64
}

// New returns an unfitted PCB-iForest.
func New(cfg Config) (*PCBForest, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("iforest: Channels must be positive, got %d", cfg.Channels)
	}
	trees := cfg.Trees
	if trees == 0 {
		trees = 25
	}
	if trees < 1 {
		return nil, fmt.Errorf("iforest: Trees must be positive, got %d", cfg.Trees)
	}
	sub := cfg.Subsample
	if sub == 0 {
		sub = 256
	}
	thr := cfg.Threshold
	if thr == 0 {
		thr = 0.5
	}
	src := randstate.NewCountedSource(cfg.Seed)
	return &PCBForest{
		numTrees:  trees,
		subsample: sub,
		threshold: thr,
		channels:  cfg.Channels,
		src:       src,
		rng:       rand.New(src),
	}, nil
}

// Channels returns N.
func (f *PCBForest) Channels() int { return f.channels }

// lastRows extracts the final stream vector s_t of every feature vector in
// the training set: PCB-iForest isolates stream vectors, not windows.
func (f *PCBForest) lastRows(set [][]float64) [][]float64 {
	out := make([][]float64, 0, len(set))
	for _, x := range set {
		if len(x) < f.channels {
			continue
		}
		out = append(out, x[len(x)-f.channels:])
	}
	return out
}

// buildOne grows a single tree from a random subsample of points.
func (f *PCBForest) buildOne(points [][]float64) *Tree {
	n := len(points)
	k := f.subsample
	if k > n {
		k = n
	}
	sample := make([][]float64, k)
	perm := f.rng.Perm(n)
	for i := 0; i < k; i++ {
		sample[i] = points[perm[i]]
	}
	return NewTree(sample, f.rng)
}

// Fit implements the framework fine-tune contract. The first call builds
// the full forest; later calls (triggered by drift) apply the PCB policy:
// retain trees with positive counters, reset counters, grow replacements.
func (f *PCBForest) Fit(set [][]float64) {
	points := f.lastRows(set)
	if len(points) == 0 {
		return
	}
	if !f.fitted {
		f.trees = make([]*Tree, f.numTrees)
		f.counters = make([]int, f.numTrees)
		for i := range f.trees {
			f.trees[i] = f.buildOne(points)
		}
		f.fitted = true
		return
	}
	kept := f.trees[:0]
	for i, t := range f.trees {
		if f.counters[i] > 0 {
			kept = append(kept, t)
		} else {
			f.pruned++
		}
	}
	f.trees = kept
	for len(f.trees) < f.numTrees {
		f.trees = append(f.trees, f.buildOne(points))
		f.grown++
	}
	f.counters = make([]int, f.numTrees)
}

// NonconformityScore returns the isolation-forest anomaly score of the
// final stream vector of feature vector x and updates the per-tree
// performance counters: trees whose individual verdict matches the
// forest's verdict gain a point, the others lose one.
func (f *PCBForest) NonconformityScore(x []float64) float64 {
	if len(x) < f.channels {
		panic("iforest: feature vector shorter than one stream vector")
	}
	s := x[len(x)-f.channels:]
	if !f.fitted || len(f.trees) == 0 {
		return 0.5
	}
	if cap(f.depths) < len(f.trees) {
		f.depths = make([]float64, len(f.trees))
	}
	depths := f.depths[:len(f.trees)]
	var sum float64
	for i, t := range f.trees {
		depths[i] = t.PathLength(s)
		sum += depths[i]
	}
	avg := sum / float64(len(f.trees))
	n := f.trees[0].sample
	overall := Score(avg, n)
	anomalous := overall > f.threshold
	for i, t := range f.trees {
		single := Score(depths[i], t.sample)
		if (single > f.threshold) == anomalous {
			f.counters[i]++
		} else {
			f.counters[i]--
		}
	}
	return overall
}
