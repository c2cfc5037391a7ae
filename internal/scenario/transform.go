// Injectors: composable Stream wrappers covering the drift taxonomy the
// related work evaluates. Each transform is itself a Stream, so
// scenarios nest — Dropout(Season(Drift(base))) — and every wrapper
// forwards Channels/Scale/ExactAnomalyCount downward unless it changes
// labels itself (only Burst does). Like the base Generator, transforms
// consume randomness only at construction: Next is RNG-free, so
// composed streams replay bit-identically.
package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"streamad/internal/randstate"
)

// Transform wraps a Stream in one injector.
type Transform func(Stream) (Stream, error)

// DriftKind selects the temporal shape of a drift injection.
type DriftKind int

const (
	// Abrupt switches to the drifted concept at step At and stays there.
	Abrupt DriftKind = iota
	// Gradual ramps linearly from the base concept to the drifted one
	// over [At, At+Span), then stays drifted.
	Gradual
	// Recurring applies the drifted concept during
	// [At+i·Period, At+i·Period+Span) for i = 0, 1, ... — concepts that
	// come back, the case single-reference drift detectors miss.
	Recurring
)

// ParseDriftKind parses the spec spellings of DriftKind.
func ParseDriftKind(s string) (DriftKind, error) {
	switch s {
	case "abrupt":
		return Abrupt, nil
	case "gradual":
		return Gradual, nil
	case "recurring":
		return Recurring, nil
	}
	return 0, fmt.Errorf("scenario: unknown drift kind %q (want abrupt, gradual or recurring)", s)
}

// DriftConfig parameterizes a mean+covariance drift.
type DriftConfig struct {
	Kind DriftKind
	// At is the step the drift starts.
	At int
	// Span is the transition length (Gradual) or the drifted-window
	// length (Recurring). Default 1 (Gradual degrades to Abrupt).
	Span int
	// Period is the concept recurrence period (Recurring only).
	Period int
	// Shift displaces every channel's mean by Shift·Scale(c).
	Shift float64
	// ScaleMul multiplies deviations around the running shift (variance
	// drift). Default 1 (no variance change).
	ScaleMul float64
	// Mix blends each channel with its right neighbour
	// (v'ᶜ = (1−Mix)·vᶜ + Mix·vᶜ⁺¹): covariance-structure drift that
	// leaves per-channel means almost untouched. Default 0.
	Mix float64
}

type driftStream struct {
	Stream
	cfg DriftConfig
	t   int
	mix []float64
}

// Drift returns a mean+covariance drift injector.
func Drift(cfg DriftConfig) Transform {
	return func(inner Stream) (Stream, error) {
		if cfg.Span <= 0 {
			cfg.Span = 1
		}
		if cfg.Kind == Recurring && cfg.Period <= cfg.Span {
			return nil, fmt.Errorf("scenario: recurring drift needs period > span (got period=%d span=%d)", cfg.Period, cfg.Span)
		}
		if cfg.ScaleMul == 0 {
			cfg.ScaleMul = 1
		}
		if cfg.Mix < 0 || cfg.Mix > 1 {
			return nil, fmt.Errorf("scenario: drift mix %v must be in [0, 1]", cfg.Mix)
		}
		return &driftStream{Stream: inner, cfg: cfg, mix: make([]float64, inner.Channels())}, nil
	}
}

// strength returns how much of the full drift applies at step t, in
// [0, 1].
func (d *driftStream) strength(t int) float64 {
	if t < d.cfg.At {
		return 0
	}
	switch d.cfg.Kind {
	case Gradual:
		f := float64(t-d.cfg.At+1) / float64(d.cfg.Span)
		if f > 1 {
			f = 1
		}
		return f
	case Recurring:
		if (t-d.cfg.At)%d.cfg.Period < d.cfg.Span {
			return 1
		}
		return 0
	default: // Abrupt
		return 1
	}
}

func (d *driftStream) Next() ([]float64, bool) {
	v, label := d.Stream.Next()
	f := d.strength(d.t)
	d.t++
	if f == 0 {
		return v, label
	}
	n := len(v)
	if m := f * d.cfg.Mix; m > 0 {
		copy(d.mix, v)
		for c := 0; c < n; c++ {
			v[c] = (1-m)*d.mix[c] + m*d.mix[(c+1)%n]
		}
	}
	for c := 0; c < n; c++ {
		v[c] = v[c]*(1+f*(d.cfg.ScaleMul-1)) + f*d.cfg.Shift*d.Stream.Scale(c)
	}
	return v, label
}

// Season returns a seasonality injector: a per-channel sinusoid of the
// given period, amp·Scale(c) high, phase-staggered across channels.
func Season(period int, amp float64) Transform {
	return func(inner Stream) (Stream, error) {
		if period <= 1 {
			return nil, fmt.Errorf("scenario: season period %d must be > 1", period)
		}
		return &seasonStream{Stream: inner, period: period, amp: amp}, nil
	}
}

type seasonStream struct {
	Stream
	period int
	amp    float64
	t      int
}

func (s *seasonStream) Next() ([]float64, bool) {
	v, label := s.Stream.Next()
	n := len(v)
	for c := 0; c < n; c++ {
		phase := 2 * math.Pi * float64(c) / float64(n)
		v[c] += s.amp * s.Stream.Scale(c) * math.Sin(2*math.Pi*float64(s.t)/float64(s.period)+phase)
	}
	s.t++
	return v, label
}

// ScaleShift returns a scale-shift injector: from step At, every channel
// is multiplied by Mul (sensors re-ranged, units changed, gain drift).
func ScaleShift(at int, mul float64) Transform {
	return func(inner Stream) (Stream, error) {
		if mul == 0 {
			return nil, fmt.Errorf("scenario: scale shift multiplier must be non-zero")
		}
		return &scaleStream{Stream: inner, at: at, mul: mul}, nil
	}
}

type scaleStream struct {
	Stream
	at  int
	mul float64
	t   int
}

func (s *scaleStream) Next() ([]float64, bool) {
	v, label := s.Stream.Next()
	if s.t >= s.at {
		for c := range v {
			v[c] *= s.mul
		}
	}
	s.t++
	return v, label
}

// DropoutMode selects what a dropped-out sensor reports.
type DropoutMode int

const (
	// Stuck pins the channel at its last pre-fault value — the classic
	// frozen-sensor failure. This is the wire-safe default.
	Stuck DropoutMode = iota
	// NaNs makes the channel report NaN (in-process scenarios only:
	// JSON cannot carry NaN, so cmd/streamload zeroes non-finite values
	// before encoding).
	NaNs
	// Zero makes the channel report 0 — a de-energized sensor.
	Zero
)

// ParseDropoutMode parses the spec spellings of DropoutMode.
func ParseDropoutMode(s string) (DropoutMode, error) {
	switch s {
	case "stuck":
		return Stuck, nil
	case "nan":
		return NaNs, nil
	case "zero":
		return Zero, nil
	}
	return 0, fmt.Errorf("scenario: unknown dropout mode %q (want stuck, nan or zero)", s)
}

// DropoutConfig parameterizes a sensor-dropout injector.
type DropoutConfig struct {
	// At is the first faulty step; Span is the fault length; Period, if
	// positive, repeats the fault every Period steps.
	At, Span, Period int
	// Channels is how many channels fail (seeded-random choice, at
	// least 1).
	Channels int
	Mode     DropoutMode
	// Seed drives the failing-channel choice.
	Seed int64
}

type dropoutStream struct {
	Stream
	cfg   DropoutConfig
	chans []int
	stuck []float64
	last  []float64
	t     int
	inWin bool
}

// Dropout returns a sensor-dropout injector: during fault windows, the
// chosen channels report a stuck value, NaN or zero. Labels are not
// changed — a dead sensor is a data-quality fault, not a labelled
// anomaly, which is exactly why it is adversarial.
func Dropout(cfg DropoutConfig) Transform {
	return func(inner Stream) (Stream, error) {
		if cfg.Span <= 0 {
			return nil, fmt.Errorf("scenario: dropout span %d must be positive", cfg.Span)
		}
		if cfg.Period > 0 && cfg.Period <= cfg.Span {
			return nil, fmt.Errorf("scenario: dropout period %d must exceed span %d", cfg.Period, cfg.Span)
		}
		n := inner.Channels()
		k := cfg.Channels
		if k <= 0 {
			k = 1
		}
		if k > n {
			k = n
		}
		rng := rand.New(randstate.NewCountedSource(cfg.Seed))
		return &dropoutStream{
			Stream: inner,
			cfg:    cfg,
			chans:  rng.Perm(n)[:k],
			stuck:  make([]float64, n),
			last:   make([]float64, n),
		}, nil
	}
}

func (d *dropoutStream) faulty(t int) bool {
	if t < d.cfg.At {
		return false
	}
	if d.cfg.Period <= 0 {
		return t < d.cfg.At+d.cfg.Span
	}
	return (t-d.cfg.At)%d.cfg.Period < d.cfg.Span
}

func (d *dropoutStream) Next() ([]float64, bool) {
	v, label := d.Stream.Next()
	if d.faulty(d.t) {
		if !d.inWin {
			// Window entry: freeze the last healthy reading.
			copy(d.stuck, d.last)
			d.inWin = true
		}
		for _, c := range d.chans {
			switch d.cfg.Mode {
			case NaNs:
				v[c] = math.NaN()
			case Zero:
				v[c] = 0
			default:
				v[c] = d.stuck[c]
			}
		}
	} else {
		d.inWin = false
	}
	copy(d.last, v)
	d.t++
	return v, label
}

// BurstConfig parameterizes burst contamination.
type BurstConfig struct {
	// At is the first burst step; Span is the burst length; Period, if
	// positive, repeats the burst every Period steps.
	At, Span, Period int
	// Mag is the spike height in channel-scale units (default 6).
	Mag float64
}

type burstStream struct {
	Stream
	cfg BurstConfig
	t   int
}

// Burst returns a burst-contamination injector: during burst windows,
// every vector is displaced by Mag·Scale(c) and labelled anomalous —
// dense anomaly clusters that break the base pool's exact spacing, the
// stress case for alert-rate-calibrated thresholds. This is the one
// injector that rewrites labels, so it reimplements ExactAnomalyCount
// from the inner stream's prefix counts.
func Burst(cfg BurstConfig) Transform {
	return func(inner Stream) (Stream, error) {
		if cfg.Span <= 0 {
			return nil, fmt.Errorf("scenario: burst span %d must be positive", cfg.Span)
		}
		if cfg.Period > 0 && cfg.Period <= cfg.Span {
			return nil, fmt.Errorf("scenario: burst period %d must exceed span %d", cfg.Period, cfg.Span)
		}
		if cfg.Mag == 0 {
			cfg.Mag = 6
		}
		return &burstStream{Stream: inner, cfg: cfg}, nil
	}
}

func (b *burstStream) bursting(t int) bool {
	if t < b.cfg.At {
		return false
	}
	if b.cfg.Period <= 0 {
		return t < b.cfg.At+b.cfg.Span
	}
	return (t-b.cfg.At)%b.cfg.Period < b.cfg.Span
}

func (b *burstStream) Next() ([]float64, bool) {
	v, label := b.Stream.Next()
	if b.bursting(b.t) {
		sign := 1.0
		if b.t%2 == 1 {
			sign = -1
		}
		for c := range v {
			v[c] += sign * b.cfg.Mag * b.Stream.Scale(c)
		}
		label = true
	}
	b.t++
	return v, label
}

// ExactAnomalyCount counts inner anomalies plus the burst-window steps
// that were not already anomalous: for each window w ∩ [0, n), the
// forced labels number |w| − (inner(w.end) − inner(w.start)), all
// computable from the inner stream's prefix counts.
func (b *burstStream) ExactAnomalyCount(n int) int {
	total := b.Stream.ExactAnomalyCount(n)
	for start := b.cfg.At; start < n; start += b.cfg.Period {
		end := start + b.cfg.Span
		if end > n {
			end = n
		}
		if end > start {
			forced := end - start
			already := b.Stream.ExactAnomalyCount(end) - b.Stream.ExactAnomalyCount(start)
			total += forced - already
		}
		if b.cfg.Period <= 0 {
			break
		}
	}
	return total
}
