// Package stats implements the statistical substrate of streamad: running
// moments, the Gaussian tail function used by the anomaly likelihood, the
// empirical CDF and the two-sample Kolmogorov–Smirnov test that backs the
// KSWIN concept-drift detector.
package stats

import (
	"math"
)

// Running tracks mean and variance of a scalar sequence with Welford's
// algorithm, supporting both append-only growth and sliding replacement
// (the μ/σ-Change strategy updates a training set by swapping one element).
type Running struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the mean
}

// Var returns the population variance (0 for fewer than 1 observation).
func (r *Running) Var() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// Push adds x.
func (r *Running) Push(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Replace removes old and adds x in O(1), keeping n constant. Following the
// paper's running-mean update μ_t = μ_{t-1} + (x_t − x*)/N. The second
// moment uses the exact pairwise update so StdDev stays consistent.
func (r *Running) Replace(old, x float64) {
	if r.n == 0 {
		r.Push(x)
		return
	}
	n := float64(r.n)
	oldMean := r.mean
	r.mean += (x - old) / n
	// Exact update of the sum of squared deviations for a swap:
	// m2' = m2 + (x−old)·(x − mean' + old − mean).
	r.m2 += (x - old) * (x - r.mean + old - oldMean)
	if r.m2 < 0 {
		r.m2 = 0 // guard against floating-point cancellation
	}
}

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }

// State exposes the accumulator's raw moments (count, mean, sum of squared
// deviations) for checkpointing.
func (r *Running) State() (n int, mean, m2 float64) { return r.n, r.mean, r.m2 }

// SetState restores an accumulator captured with State.
func (r *Running) SetState(n int, mean, m2 float64) {
	r.n, r.mean, r.m2 = n, mean, m2
}

// QFunc is the Gaussian tail distribution function
// Q(x) = P(Z > x) = 0.5·erfc(x/√2) for a standard normal Z.
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// Statistic is sup_x |F1(x) − F2(x)|.
	Statistic float64
	// Threshold is c(α)·√((r1+r2)/(r1·r2)); the null hypothesis of equal
	// distributions is rejected when Statistic > Threshold.
	Threshold float64
	// Reject reports Statistic > Threshold.
	Reject bool
	// Comparisons counts the binary-search comparisons spent evaluating the
	// statistic, used by the Table II operation accounting.
	Comparisons int
}

// KSCritical returns c(α) = sqrt(ln(2/α)/2), the critical value of the
// two-sample KS test at significance α.
//
// Note: the paper prints c(α)=sqrt(ln(2/α)); the standard Smirnov critical
// value includes the 1/2 factor and is what KSWIN (Raab et al.) uses, so we
// use sqrt(ln(2/α)/2).
func KSCritical(alpha float64) float64 {
	return math.Sqrt(math.Log(2/alpha) / 2)
}

// KSTestSorted runs the two-sample KS test on the sorted samples sa and
// sb at significance alpha.
func KSTestSorted(sa, sb []float64, alpha float64) KSResult {
	ra, rb := len(sa), len(sb)
	if ra == 0 || rb == 0 {
		return KSResult{}
	}
	// Merge-walk both sorted samples computing the sup of CDF differences.
	var (
		i, j int
		d    float64
		cmps int
	)
	for i < ra && j < rb {
		cmps++
		var x float64
		if sa[i] <= sb[j] {
			x = sa[i]
		} else {
			x = sb[j]
		}
		for i < ra && sa[i] <= x {
			i++
			cmps++
		}
		for j < rb && sb[j] <= x {
			j++
			cmps++
		}
		diff := math.Abs(float64(i)/float64(ra) - float64(j)/float64(rb))
		if diff > d {
			d = diff
		}
	}
	thr := KSCritical(alpha) * math.Sqrt(float64(ra+rb)/float64(ra*rb))
	return KSResult{Statistic: d, Threshold: thr, Reject: d > thr, Comparisons: cmps}
}
