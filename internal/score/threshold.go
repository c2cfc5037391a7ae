package score

import (
	"math"
	"sort"
)

// Thresholder turns the stream of anomaly scores f_t into binary alerts
// without offline calibration. It is not part of the paper's framework —
// the paper evaluates score series offline — but a deployed detector
// needs an online decision rule, so the library provides one.
type Thresholder interface {
	// Alert consumes the next anomaly score and reports whether it crosses
	// the current threshold. The threshold adapts as scores stream in.
	Alert(f float64) bool
	// Threshold returns the current decision boundary.
	Threshold() float64
}

// StaticThresholder alerts above a fixed boundary.
type StaticThresholder struct {
	T float64
}

// Alert implements Thresholder.
func (s *StaticThresholder) Alert(f float64) bool { return f >= s.T }

// Threshold implements Thresholder.
func (s *StaticThresholder) Threshold() float64 { return s.T }

// QuantileThresholder maintains a streaming estimate of the q-quantile of
// the score distribution using the P² algorithm (Jain & Chlamtac 1985) —
// constant memory, no sample buffer — and alerts when a score exceeds it.
// During the first few observations (before the five P² markers exist) it
// never alerts.
type QuantileThresholder struct {
	q       float64
	n       [5]float64 // marker positions
	np      [5]float64 // desired positions
	dn      [5]float64 // position increments
	heights [5]float64
	count   int
	dropped int
	init    []float64
}

// NewQuantileThresholder returns a streaming q-quantile thresholder
// (0 < q < 1), e.g. 0.99 to alert on the top percent of scores.
func NewQuantileThresholder(q float64) *QuantileThresholder {
	if q <= 0 || q >= 1 {
		panic("score: quantile must be in (0,1)")
	}
	return &QuantileThresholder{q: q, init: make([]float64, 0, 5)}
}

// observe feeds one value into the P² estimator. Non-finite values are
// discarded: a single NaN folded into the marker heights would poison
// the quantile estimate permanently (every comparison against NaN is
// false, so the markers never move again and alerts never fire).
func (p *QuantileThresholder) observe(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		p.dropped++
		return
	}
	p.count++
	if len(p.init) < 5 {
		p.init = append(p.init, x)
		if len(p.init) == 5 {
			sort.Float64s(p.init)
			for i := 0; i < 5; i++ {
				p.heights[i] = p.init[i]
				p.n[i] = float64(i + 1)
			}
			p.np = [5]float64{1, 1 + 2*p.q, 1 + 4*p.q, 3 + 2*p.q, 5}
			p.dn = [5]float64{0, p.q / 2, p.q, (1 + p.q) / 2, 1}
		}
		return
	}
	// Locate cell k containing x and update extreme heights.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.n[i]++
	}
	for i := 0; i < 5; i++ {
		p.np[i] += p.dn[i]
	}
	// Adjust interior markers with the parabolic formula.
	for i := 1; i <= 3; i++ {
		d := p.np[i] - p.n[i]
		if (d >= 1 && p.n[i+1]-p.n[i] > 1) || (d <= -1 && p.n[i-1]-p.n[i] < -1) {
			s := sign(d)
			h := p.parabolic(i, s)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, s)
			}
			p.n[i] += s
		}
	}
}

func sign(x float64) float64 {
	if x >= 0 {
		return 1
	}
	return -1
}

func (p *QuantileThresholder) parabolic(i int, s float64) float64 {
	return p.heights[i] + s/(p.n[i+1]-p.n[i-1])*
		((p.n[i]-p.n[i-1]+s)*(p.heights[i+1]-p.heights[i])/(p.n[i+1]-p.n[i])+
			(p.n[i+1]-p.n[i]-s)*(p.heights[i]-p.heights[i-1])/(p.n[i]-p.n[i-1]))
}

func (p *QuantileThresholder) linear(i int, s float64) float64 {
	si := int(s)
	return p.heights[i] + s*(p.heights[i+si]-p.heights[i])/(p.n[i+si]-p.n[i])
}

// Alert implements Thresholder: the score is compared against the current
// quantile estimate, then folded into it.
func (p *QuantileThresholder) Alert(f float64) bool {
	th := p.Threshold()
	p.observe(f)
	if math.IsInf(th, 1) {
		return false
	}
	return f > th
}

// Threshold implements Thresholder; +Inf until five scores have arrived.
func (p *QuantileThresholder) Threshold() float64 {
	if len(p.init) < 5 {
		return math.Inf(1)
	}
	return p.heights[2] // the middle marker tracks the q-quantile
}

// Name identifies the policy. It is a compat shim (see streamad.go):
// only a wrapper in the frozen benchmark forwards it.
func (p *QuantileThresholder) Name() string { return "p2-quantile" }
