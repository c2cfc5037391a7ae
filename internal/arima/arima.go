// Package arima implements the online ARIMA model of Liu et al. (2016) as
// used by the paper: the ARIMA(q, d, q') process is approximated by an
// ARIMA(q+m, d, 0) model without noise terms,
//
//	s̃_t(γ) = Σ_{i=1..q+m} γ_i ∇^d s_{t−i} + Σ_{i=0..d−1} ∇^i s_{t−1},
//
// whose only parameter γ ∈ R^{q+m} is learned by online gradient descent.
// Multivariate streams are handled the way the paper prescribes: all
// channels share the single coefficient vector, as if they were segments
// of one univariate stream, so no cross-channel correlations are modeled.
package arima

import (
	"fmt"
	"math"
)

// Model is an online ARIMA(q+m, d, 0) forecaster over N-channel streams.
// It consumes feature vectors x ∈ R^{w×N} (w = lags + d rows, row-major,
// oldest first) and forecasts the final row from the preceding ones.
type Model struct {
	lags     int // q+m: number of autoregressive coefficients
	d        int // differencing order
	channels int // N
	gamma    []float64
	lr       float64   // learning rate fixed at construction; snapshots restore onto an identically-configured model
	binom    []float64 // derived from the differencing order d at construction (signedBinomial)
	// scratch buffers — Predict and step run allocation-free once series
	// has grown to the window size.
	series    []float64 // per-call copy of the input window, overwritten by every Predict
	targetBuf []float64 // per-call forecasting scratch
	predBuf   []float64 // per-call forecasting scratch
	lagDiffs  []float64 // per-call forecasting scratch
	gradBuf   []float64 // per-call gradient scratch
}

// Config parameterizes the online ARIMA model.
type Config struct {
	// Lags is q+m, the length of the coefficient vector γ. Required > 0.
	Lags int
	// D is the differencing order (0, 1 or 2 are typical).
	D int
	// Channels is the stream dimensionality N.
	Channels int
	// LR is the online gradient-descent learning rate (default 0.01).
	LR float64
}

// New returns an online ARIMA model. The matching data-representation
// window length is w = Lags + D + 1 rows (Lags+D history rows plus the
// current row being forecast).
func New(cfg Config) (*Model, error) {
	if cfg.Lags <= 0 {
		return nil, fmt.Errorf("arima: Lags must be positive, got %d", cfg.Lags)
	}
	if cfg.D < 0 || cfg.D > 4 {
		return nil, fmt.Errorf("arima: D must be in [0,4], got %d", cfg.D)
	}
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("arima: Channels must be positive, got %d", cfg.Channels)
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	m := &Model{
		lags:      cfg.Lags,
		d:         cfg.D,
		channels:  cfg.Channels,
		gamma:     make([]float64, cfg.Lags),
		lr:        lr,
		binom:     signedBinomial(cfg.D),
		targetBuf: make([]float64, cfg.Channels),
		predBuf:   make([]float64, cfg.Channels),
		lagDiffs:  make([]float64, cfg.Lags),
		gradBuf:   make([]float64, cfg.Lags),
	}
	// Start from a short-memory prior: weight on the most recent lag. This
	// makes the untrained model a persistence forecaster, which is the
	// sensible zero-knowledge baseline for streams.
	m.gamma[0] = 1
	return m, nil
}

// WindowRows returns the number of stream rows the model needs per feature
// vector: lags + d history rows + 1 target row.
func (m *Model) WindowRows() int { return m.lags + m.d + 1 }

// Channels returns N.
func (m *Model) Channels() int { return m.channels }

// signedBinomial returns (−1)^i · C(d,i) for i = 0..d, the coefficients of
// the d-fold differencing operator ∇^d s_t = Σ (−1)^i C(d,i) s_{t−i}.
func signedBinomial(d int) []float64 {
	out := make([]float64, d+1)
	c := 1.0
	for i := 0; i <= d; i++ {
		if i > 0 {
			c = c * float64(d-i+1) / float64(i)
		}
		if i%2 == 0 {
			out[i] = c
		} else {
			out[i] = -c
		}
	}
	return out
}

// diff computes ∇^d series[t] for t ≥ d using the binomial form.
func (m *Model) diff(series []float64, t int) float64 {
	var s float64
	for i, b := range m.binom {
		s += b * series[t-i]
	}
	return s
}

// forecastChannel predicts the value at index last = len(series)−1 from
// series[0..last−1] and also returns the differenced lag values needed by
// the gradient update.
func (m *Model) forecastChannel(series []float64, lagDiffs []float64) float64 {
	last := len(series) - 1
	// Differenced lags: ∇^d s_{last−i} for i = 1..lags.
	var pred float64
	for i := 1; i <= m.lags; i++ {
		dv := m.diff(series, last-i)
		lagDiffs[i-1] = dv
		pred += m.gamma[i-1] * dv
	}
	// Integration terms: Σ_{i=0..d−1} ∇^i s_{last−1}. The lag diffs above
	// only read the original series, so differencing runs in place:
	// cur[j−1] = cur[j] − cur[j−1] ascending reads each cell before it is
	// overwritten, and the caller owns series as scratch.
	cur := series // ∇^0
	for i := 0; i < m.d; i++ {
		pred += cur[last-1]
		for j := 1; j < len(cur); j++ {
			cur[j-1] = cur[j] - cur[j-1]
		}
		cur = cur[:len(cur)-1]
	}
	return pred
}

// extract copies channel c of the feature vector x (row-major w×N) into
// dst and returns it.
func (m *Model) extract(x []float64, c int, dst []float64) []float64 {
	w := len(x) / m.channels
	dst = dst[:0]
	for r := 0; r < w; r++ {
		// Appends into caller-owned scratch sized to the window; the steady state never grows it.
		dst = append(dst, x[r*m.channels+c])
	}
	return dst
}

// Predict implements the framework model contract: given feature vector
// x ∈ R^{w×N} it returns (target, prediction) where target is the actual
// final stream vector s_t and prediction is the forecast ŝ_t. Both slices
// are reused across calls; copy to retain.
func (m *Model) Predict(x []float64) (target, pred []float64) {
	w := len(x) / m.channels
	if w*m.channels != len(x) || w < m.WindowRows() {
		panic(fmt.Sprintf("arima: feature vector needs ≥%d rows of %d channels, got %d values",
			m.WindowRows(), m.channels, len(x)))
	}
	target = m.targetBuf
	pred = m.predBuf
	lagDiffs := m.lagDiffs
	if cap(m.series) < w {
		m.series = make([]float64, w)
	}
	for c := 0; c < m.channels; c++ {
		series := m.extract(x, c, m.series[:0])
		target[c] = series[len(series)-1]
		pred[c] = m.forecastChannel(series, lagDiffs)
	}
	return target, pred
}

// step performs one gradient update of γ on the squared forecast error of
// the final row of x, accumulating over channels (shared coefficients).
func (m *Model) step(x []float64) {
	w := len(x) / m.channels
	if w < m.WindowRows() {
		return
	}
	lagDiffs := m.lagDiffs
	grad := m.gradBuf
	for i := range grad {
		grad[i] = 0
	}
	if cap(m.series) < w {
		m.series = make([]float64, w)
	}
	for c := 0; c < m.channels; c++ {
		series := m.extract(x, c, m.series[:0])
		actual := series[len(series)-1]
		pred := m.forecastChannel(series, lagDiffs)
		err := pred - actual
		for i, dv := range lagDiffs {
			grad[i] += err * dv
		}
	}
	// Normalize by channel count and clip to keep OGD stable on bursty data.
	scale := m.lr / float64(m.channels)
	var norm float64
	for _, g := range grad {
		norm += g * g
	}
	norm = math.Sqrt(norm)
	const maxNorm = 10
	if norm > maxNorm {
		scale *= maxNorm / norm
	}
	for i, g := range grad {
		m.gamma[i] -= scale * g
	}
}

// Fit runs one online-gradient epoch over the training set, as the paper's
// fine-tuning step prescribes.
func (m *Model) Fit(set [][]float64) {
	for _, x := range set {
		m.step(x)
	}
}
