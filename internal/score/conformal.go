package score

import (
	"math"

	"streamad/internal/window"
	"streamad/internal/wire"
)

// Conformal turns anomaly scores into conformal p-values against a
// sliding calibration window, in the style of inductive conformal
// anomaly detection: with n calibration scores y_1..y_n, the p-value of
// a new score f is
//
//	p(f) = (#{i : y_i ≥ f} + 1) / (n + 1)
//
// Under exchangeability, p is super-uniform, so the rule "alert when
// p ≤ ε" has false-positive rate ≤ ε regardless of the score's scale or
// distribution — which is what makes it usable both as an alternative
// decision rule to the P² quantile thresholder and as the cascade's
// admission gate (ε is then the target false-admission rate). The
// guarantee holds at any n (p-values are just coarse when the window is
// young: min p = 1/(n+1), so alerts cannot fire at all until
// n ≥ 1/ε − 1); the sliding window trades a little exactness for drift
// adaptation, the standard streaming compromise.
//
// Non-finite scores are dropped from calibration (the P² lesson: one NaN
// must not poison the decision rule) and receive p-value 1.
type Conformal struct {
	ring    *window.Ring
	eps     float64
	dropped int
	top     []float64 // reusable top-(k+1) scratch for Threshold, overwritten per call
}

// NewConformal returns a conformal decision rule with a calibration
// window of the given capacity and target false-positive rate eps.
func NewConformal(capacity int, eps float64) *Conformal {
	if capacity < 1 {
		panic("score: conformal calibration capacity must be positive")
	}
	if eps <= 0 || eps >= 1 {
		panic("score: conformal epsilon must be in (0,1)")
	}
	return &Conformal{ring: window.NewRing(capacity), eps: eps}
}

// PValue returns the conformal p-value of f against the current
// calibration window, without observing f. Non-finite scores get 1.
func (c *Conformal) PValue(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 1
	}
	n := c.ring.Len()
	ge := 0
	for i := 0; i < n; i++ {
		if c.ring.At(i) >= f {
			ge++
		}
	}
	return float64(ge+1) / float64(n+1)
}

// Observe folds f into the sliding calibration window; non-finite
// scores are dropped.
func (c *Conformal) Observe(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		c.dropped++
		return
	}
	c.ring.Push(f)
}

// N returns the number of calibration scores currently held.
func (c *Conformal) N() int { return c.ring.Len() }

// Alert implements Thresholder: the score's p-value is compared against
// ε, then the score joins the calibration window.
func (c *Conformal) Alert(f float64) bool {
	alert := c.PValue(f) <= c.eps
	c.Observe(f)
	return alert
}

// Threshold implements Thresholder: the current score boundary above
// which p ≤ ε, i.e. the (⌊ε(n+1)⌋)-th largest calibration score; +Inf
// while the window is too young for any score to alert.
func (c *Conformal) Threshold() float64 {
	n := c.ring.Len()
	k := int(c.eps*float64(n+1)) - 1
	if k < 0 {
		return math.Inf(1)
	}
	if k >= n {
		return math.Inf(-1)
	}
	// Keep the k+1 largest calibration scores in an ascending scratch;
	// the smallest of them is the boundary.
	if cap(c.top) < k+1 {
		c.top = make([]float64, 0, k+1)
	}
	top := c.top[:0]
	for i := 0; i < n; i++ {
		v := c.ring.At(i)
		if len(top) < k+1 {
			pos := searchAscending(top, v)
			top = append(top, 0)
			copy(top[pos+1:], top[pos:len(top)-1])
			top[pos] = v
			continue
		}
		if v > top[0] {
			pos := searchAscending(top[1:], v)
			copy(top[:pos], top[1:pos+1])
			top[pos] = v
		}
	}
	c.top = top[:0]
	return top[0]
}

// searchAscending returns the first index in a not less than x.
func searchAscending(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Walk implements wire.Walker. The dropped counter rides along so the
// diagnostic survives a restore. The receiver's epsilon and window
// capacity must match the snapshot.
func (c *Conformal) Walk(w *wire.Walk) {
	w.ExpectFloat64("score: conformal eps", c.eps)
	w.Int(&c.dropped)
	w.Section(c.ring.Walk)
}

// MarshalBinary implements encoding.BinaryMarshaler, so the ingest
// layer persists the calibration window with the stream snapshot.
func (c *Conformal) MarshalBinary() ([]byte, error) {
	return wire.Append(make([]byte, 0, 8*(5+c.ring.Cap())), c)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Conformal) UnmarshalBinary(data []byte) error { return wire.Decode(data, c) }
