package drift

import (
	"math"

	"streamad/internal/reservoir"
)

// ADWIN is the adaptive-windowing drift detector of Bifet & Gavaldà,
// which the paper's related work discusses (Belacel et al. reconstruct an
// ADWIN with an LSTM and fine-tune on the shrunk window). It watches a
// scalar summary of each observed feature vector — the mean of its
// elements — keeps an adaptive window of recent values, and signals drift
// when some split of the window into old|new halves shows a mean
// difference exceeding the Hoeffding-style bound
//
//	ε_cut = √( (1/2m) · ln(4/δ') ),   1/m = 1/|W₀| + 1/|W₁|,
//
// at which point the old half is dropped. It is an extension beyond the
// paper's Task 2 grid, provided for comparison with μ/σ-Change and KSWIN.
type ADWIN struct {
	// Delta is the confidence parameter δ (default 0.002).
	Delta float64
	// MaxWindow bounds memory (default 2048 values).
	MaxWindow int
	// MinSplit is the minimum subwindow size considered (default 8).
	MinSplit int

	window []float64
	ops    OpCounts
}

// NewADWIN returns an ADWIN detector with the given confidence δ
// (0 = default 0.002).
func NewADWIN(delta float64) *ADWIN {
	if delta == 0 {
		delta = 0.002
	}
	if delta <= 0 || delta >= 1 {
		panic("drift: ADWIN delta must be in (0,1)")
	}
	return &ADWIN{Delta: delta, MaxWindow: 2048, MinSplit: 8}
}

// summarize reduces a feature vector to the scalar ADWIN tracks.
func summarize(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Observe implements Detector.
func (a *ADWIN) Observe(u reservoir.Update, x []float64, _ reservoir.TrainingSet) bool {
	if u.Kind == reservoir.Skipped {
		return false
	}
	a.window = append(a.window, summarize(x))
	a.ops.Adds += int64(len(x))
	a.ops.Mults++
	if len(a.window) > a.MaxWindow {
		a.window = a.window[len(a.window)-a.MaxWindow:]
	}
	n := len(a.window)
	if n < 2*a.MinSplit {
		return false
	}
	// Prefix sums for O(n) split evaluation.
	total := 0.0
	for _, v := range a.window {
		total += v
	}
	a.ops.Adds += int64(n)
	deltaPrime := a.Delta / float64(n)
	lnTerm := math.Log(4 / deltaPrime)
	var prefix float64
	drift := false
	cut := -1
	for i := a.MinSplit; i <= n-a.MinSplit; i++ {
		prefix += a.window[i-1]
		n0 := float64(i)
		n1 := float64(n - i)
		mean0 := prefix / n0
		mean1 := (total - prefix) / n1
		invM := 1/n0 + 1/n1
		eps := math.Sqrt(0.5 * invM * lnTerm)
		a.ops.Adds += 4
		a.ops.Mults += 4
		a.ops.Cmps++
		if math.Abs(mean0-mean1) > eps {
			drift = true
			cut = i
			// Keep scanning: the LAST admissible cut keeps the most data.
		}
	}
	if drift {
		a.window = append([]float64(nil), a.window[cut:]...)
	}
	return drift
}

// Reset implements Detector. ADWIN manages its own window; the drift cut
// already removed the stale half, so nothing else to do.
func (a *ADWIN) Reset(reservoir.TrainingSet) {}

// Ops implements Detector.
func (a *ADWIN) Ops() OpCounts { return a.ops }
