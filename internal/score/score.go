// Package score implements the last two components of the extended SAFARI
// framework: nonconformity measures (Definition III.3) that map a model's
// prediction error into a strangeness value in [0,1], and anomaly scoring
// functions (Definition III.4) that map a window of nonconformity scores
// into the final anomaly score f_t.
package score

import (
	"math"

	"streamad/internal/mat"
	"streamad/internal/stats"
	"streamad/internal/window"
)

// Nonconformity maps a (target, prediction) pair to a strangeness value.
type Nonconformity interface {
	// Measure returns a_t ∈ [0,1]; 0 = perfectly normal, 1 = maximally
	// strange.
	Measure(target, pred []float64) float64
}

// Cosine is the paper's cosine-similarity nonconformity a_t = 1 − cos.
// Since 1 − cos ranges over [0,2], the value is halved to satisfy the
// framework's [0,1] requirement without clamping — a hard clamp at 1
// would collapse every anti-correlated prediction onto a single value and
// destroy the ranking information downstream scorers depend on.
type Cosine struct{}

// Measure implements Nonconformity.
func (Cosine) Measure(target, pred []float64) float64 {
	a := (1 - mat.CosineSimilarity(target, pred)) / 2
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// Scorer converts the stream of nonconformity scores a_t into the final
// anomaly scores f_t.
type Scorer interface {
	// Score consumes the next nonconformity value and returns f_t.
	Score(a float64) float64
	// Reset clears accumulated state.
	Reset()
}

// Raw passes nonconformity scores through unchanged (f_t = a_t); it is the
// baseline the paper compares the window-based scorers against.
type Raw struct{}

// Score implements Scorer.
func (Raw) Score(a float64) float64 { return a }

// Reset implements Scorer.
func (Raw) Reset() {}

// Average is the sliding mean of the last k nonconformity scores.
type Average struct {
	ring *window.Ring
	sum  float64
}

// NewAverage returns an averaging scorer over windows of k scores.
func NewAverage(k int) *Average {
	return &Average{ring: window.NewRing(k)}
}

// Score implements Scorer.
func (s *Average) Score(a float64) float64 {
	if old, evicted := s.ring.Push(a); evicted {
		s.sum -= old
	}
	s.sum += a
	return s.sum / float64(s.ring.Len())
}

// Reset implements Scorer.
func (s *Average) Reset() {
	s.ring.Reset()
	s.sum = 0
}

// AnomalyLikelihood is the Numenta anomaly likelihood (Lavin & Ahmad):
// it compares a short-term mean μ̃ (window k') against the long-term mean
// μ and deviation σ (window k) of the nonconformity scores,
//
//	f_t = 1 − Q((μ̃_t − μ_t)/σ_t),
//
// where Q is the Gaussian tail function. Scores near 1 indicate that the
// recent strangeness is abnormally high relative to its own history.
//
// Two implementation details follow the reference Numenta code rather
// than the formula sheet: (1) the long window lags the short window, so a
// fresh anomaly does not instantly inflate its own baseline σ, and (2)
// the z-score is soft-capped before the Gaussian map, keeping the output
// strictly monotonic in z instead of collapsing every large deviation to
// exactly 1.0 (which would destroy threshold sweeps on clean streams).
type AnomalyLikelihood struct {
	long   *window.Ring // lagged baseline window (k values)
	short  *window.Ring // most recent k' values
	sumL   float64
	sumSqL float64
	sumS   float64
}

// zCap bounds the z-score softly: zEff = z/√(1+(z/zCap)²).
const zCap = 4.0

// NewAnomalyLikelihood returns an anomaly-likelihood scorer with long
// window k and short window kShort (kShort ≪ k).
func NewAnomalyLikelihood(k, kShort int) *AnomalyLikelihood {
	if kShort >= k {
		panic("score: anomaly likelihood needs kShort < k")
	}
	return &AnomalyLikelihood{
		long:  window.NewRing(k),
		short: window.NewRing(kShort),
	}
}

// Score implements Scorer.
func (s *AnomalyLikelihood) Score(a float64) float64 {
	// The short ring sees the newest value; values it evicts graduate into
	// the lagged long window.
	if graduated, evicted := s.short.Push(a); evicted {
		s.sumS -= graduated
		if old, lEvicted := s.long.Push(graduated); lEvicted {
			s.sumL -= old
			s.sumSqL -= old * old
		}
		s.sumL += graduated
		s.sumSqL += graduated * graduated
	}
	s.sumS += a

	// Until the lagged baseline window is complete the estimate of (μ, σ)
	// is unreliable — report the neutral likelihood instead of spiking on
	// the first few post-warmup scores.
	if !s.long.Full() {
		return 0.5
	}
	nL := float64(s.long.Len())
	mean := s.sumL / nL
	variance := s.sumSqL/nL - mean*mean
	if variance < 1e-12 {
		variance = 1e-12
	}
	sigma := math.Sqrt(variance)
	shortMean := s.sumS / float64(s.short.Len())
	z := (shortMean - mean) / sigma
	z = z / math.Sqrt(1+(z/zCap)*(z/zCap))
	return 1 - stats.QFunc(z)
}

// Reset implements Scorer.
func (s *AnomalyLikelihood) Reset() {
	s.long.Reset()
	s.short.Reset()
	s.sumL, s.sumSqL, s.sumS = 0, 0, 0
}
