// Package knn implements the similarity-based nonconformity detector of
// the original SAFARI framework (Calikus et al.), which the paper extends:
// the "model" is the reference group itself, and the strangeness of a
// feature vector is its average distance to the k nearest members of the
// training set, normalized by the training set's own k-NN distance scale.
//
// It is not part of the paper's 26-algorithm grid but serves as the
// predecessor baseline the extended framework is measured against, and it
// demonstrates that purely instance-based methods plug into the same four
// components (its θ contains no trainable parameters beyond R_train).
package knn

import (
	"fmt"
	"math"
	"sort"
)

// Model is a k-nearest-neighbor nonconformity scorer.
type Model struct {
	k     int
	dim   int
	ref   [][]float64
	scale float64   // median in-set k-NN distance at the last Fit
	best  []float64 // reusable top-k scratch for knnDistance, overwritten per call
}

// Config parameterizes the kNN detector.
type Config struct {
	// K is the neighbor count (default 5).
	K int
	// Dim is the feature-vector length w·N.
	Dim int
}

// New returns an unfitted kNN model.
func New(cfg Config) (*Model, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("knn: Dim must be positive, got %d", cfg.Dim)
	}
	k := cfg.K
	if k == 0 {
		k = 5
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: K must be positive, got %d", cfg.K)
	}
	return &Model{k: k, dim: cfg.Dim}, nil
}

// Fitted reports whether a reference set is loaded.
func (m *Model) Fitted() bool { return len(m.ref) > 0 }

// dist2 is the squared Euclidean distance.
func dist2(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// knnDistance returns the mean distance from x to its k nearest members
// of ref, skipping the member at index skip (−1 to keep all).
func (m *Model) knnDistance(x []float64, skip int) float64 {
	k := m.k
	if k > len(m.ref) {
		k = len(m.ref)
	}
	if skip >= 0 && k >= len(m.ref) {
		k = len(m.ref) - 1
	}
	if k < 1 {
		return 0
	}
	// Keep the k smallest squared distances sorted in a reusable scratch
	// slice; binary insertion in both the fill and steady phases replaces
	// the old fill-phase full re-sort (O(k log k) per element).
	if cap(m.best) < k {
		m.best = make([]float64, 0, k)
	}
	best := m.best[:0]
	for i, r := range m.ref {
		if i == skip {
			continue
		}
		d := dist2(x, r)
		if len(best) < k {
			pos := sort.SearchFloat64s(best, d)
			// Binary insertion into the cap-k scratch; it never grows.
			best = append(best, 0)
			copy(best[pos+1:], best[pos:len(best)-1])
			best[pos] = d
			continue
		}
		if d < best[k-1] {
			pos := sort.SearchFloat64s(best, d)
			copy(best[pos+1:], best[pos:k-1])
			best[pos] = d
		}
	}
	m.best = best[:0]
	var sum float64
	for _, d := range best {
		sum += math.Sqrt(d)
	}
	return sum / float64(len(best))
}

// Fit implements the framework fine-tune contract: it snapshots the
// training set as the reference group and recomputes the normalization
// scale (the median leave-one-out k-NN distance within the set).
func (m *Model) Fit(set [][]float64) {
	if len(set) == 0 {
		return
	}
	ref := make([][]float64, 0, len(set))
	backing := make([]float64, 0, len(set)*m.dim)
	for _, x := range set {
		if len(x) != m.dim {
			continue
		}
		backing = append(backing, x...)
		ref = append(ref, backing[len(backing)-m.dim:])
	}
	if len(ref) == 0 {
		return
	}
	m.ref = ref
	// Median leave-one-out k-NN distance; subsample large sets to keep the
	// fit at O(min(m,64)·m).
	sample := len(ref)
	if sample > 64 {
		sample = 64
	}
	dists := make([]float64, 0, sample)
	stride := len(ref) / sample
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(ref) && len(dists) < sample; i += stride {
		dists = append(dists, m.knnDistance(ref[i], i))
	}
	sort.Float64s(dists)
	m.scale = dists[len(dists)/2]
	if m.scale <= 0 {
		m.scale = 1e-9
	}
}

// NonconformityScore implements the framework's SelfScoring contract: the
// k-NN distance is mapped into [0,1) by d/(d+scale), so a vector at the
// training set's own typical distance scores 0.5 and far-away vectors
// approach 1.
func (m *Model) NonconformityScore(x []float64) float64 {
	if !m.Fitted() {
		return 0.5
	}
	d := m.knnDistance(x, -1)
	return d / (d + m.scale)
}
