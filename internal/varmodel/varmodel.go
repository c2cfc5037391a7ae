// Package varmodel implements a vector-autoregressive VAR(p) model,
//
//	s_t = ν + Σ_{i=1..p} A_i · s_{t−i} + ε_t,
//
// with coefficient matrices A_i ∈ R^{N×N} and intercept ν ∈ R^N estimated
// by least squares (Lütkepohl 2005). Unlike the shared-coefficient online
// ARIMA, VAR captures cross-channel correlations. Estimation requires a
// contiguous excerpt of the stream, which restricts the Task 1 learning
// strategy to the sliding window, exactly as the paper notes.
package varmodel

import (
	"fmt"

	"streamad/internal/mat"
)

// Model is a VAR(p) forecaster over N-channel streams. It consumes feature
// vectors x ∈ R^{w×N} (row-major, oldest first, w ≥ p+1) and forecasts the
// final row from the preceding p rows.
type Model struct {
	p        int
	channels int
	// coef is the stacked coefficient matrix [ν | A_1 | … | A_p] with shape
	// N × (1 + p·N); prediction is coef · [1, s_{t−1}, …, s_{t−p}].
	coef   *mat.Dense
	fitted bool
}

// Config parameterizes the VAR model.
type Config struct {
	// P is the autoregressive order (number of lagged stream vectors).
	P int
	// Channels is the stream dimensionality N.
	Channels int
}

// New returns an unfitted VAR(p) model.
func New(cfg Config) (*Model, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("varmodel: P must be positive, got %d", cfg.P)
	}
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("varmodel: Channels must be positive, got %d", cfg.Channels)
	}
	return &Model{p: cfg.P, channels: cfg.Channels}, nil
}

// Channels returns N.
func (m *Model) Channels() int { return m.channels }

// regressor builds [1, s_{t−1}, …, s_{t−p}] for the row at index t of the
// series (series laid out as rows × N).
func (m *Model) regressor(series []float64, t int, dst []float64) []float64 {
	dst = dst[:0]
	dst = append(dst, 1)
	for i := 1; i <= m.p; i++ {
		row := series[(t-i)*m.channels : (t-i+1)*m.channels]
		dst = append(dst, row...)
	}
	return dst
}

// Predict implements the framework model contract: given feature vector
// x ∈ R^{w×N} it returns (target, prediction) for the final stream vector.
// Before the first fit the prediction falls back to persistence (ŝ_t =
// s_{t−1}).
func (m *Model) Predict(x []float64) (target, pred []float64) {
	w := len(x) / m.channels
	if w*m.channels != len(x) || w < m.p+1 {
		panic(fmt.Sprintf("varmodel: feature vector needs ≥%d rows of %d channels", m.p+1, m.channels))
	}
	target = make([]float64, m.channels)
	copy(target, x[(w-1)*m.channels:])
	if !m.fitted {
		pred = make([]float64, m.channels)
		copy(pred, x[(w-2)*m.channels:(w-1)*m.channels])
		return target, pred
	}
	reg := m.regressor(x, w-1, make([]float64, 0, 1+m.p*m.channels))
	pred, err := m.coef.MulVec(reg)
	if err != nil {
		panic(err) // impossible: regressor length is fixed by construction
	}
	return target, pred
}

// FitSeries estimates the coefficients by least squares from a contiguous
// series of rows×N values (row-major, oldest first). It needs at least
// p + 1 + p·N rows for an overdetermined system; with fewer it still
// solves the ridge-regularized normal equations.
func (m *Model) FitSeries(series []float64) error {
	rows := len(series) / m.channels
	if rows*m.channels != len(series) {
		return fmt.Errorf("varmodel: series length %d not a multiple of %d channels", len(series), m.channels)
	}
	if rows < m.p+1 {
		return fmt.Errorf("varmodel: need at least %d rows, got %d", m.p+1, rows)
	}
	nObs := rows - m.p
	k := 1 + m.p*m.channels
	a := mat.NewDense(nObs, k)
	b := mat.NewDense(nObs, m.channels)
	scratch := make([]float64, 0, k)
	for t := m.p; t < rows; t++ {
		reg := m.regressor(series, t, scratch)
		copy(a.Row(t-m.p), reg)
		copy(b.Row(t-m.p), series[t*m.channels:(t+1)*m.channels])
	}
	x, err := mat.SolveLSMulti(a, b)
	if err != nil {
		return fmt.Errorf("varmodel: least squares failed: %w", err)
	}
	// x has shape k × N (one column per output channel); store as N × k.
	m.coef = x.T()
	m.fitted = true
	return nil
}

// Fit implements the framework fine-tune contract. The training set must
// come from a sliding window, so its feature vectors are overlapping
// contiguous excerpts; the most recent feature vector already contains the
// freshest w rows, and the estimation uses the concatenation of the oldest
// vector with the trailing rows of each successor to recover the full
// contiguous span.
func (m *Model) Fit(set [][]float64) {
	if len(set) == 0 {
		return
	}
	// Reconstruct the contiguous series: the sliding-window training set
	// holds x_i = [s_{i−w+1}, …, s_i] for consecutive i, so the span is the
	// first vector plus the last row of every following vector.
	series := make([]float64, 0, len(set[0])+len(set)*m.channels)
	series = append(series, set[0]...)
	for _, x := range set[1:] {
		series = append(series, x[len(x)-m.channels:]...)
	}
	// Estimation failure (e.g. constant series) keeps the previous fit.
	_ = m.FitSeries(series)
}
