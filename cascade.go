package streamad

import (
	"fmt"

	"streamad/internal/cascade"
	"streamad/internal/core"
	"streamad/internal/spec"
	"streamad/internal/tier0"
)

// Tier0Kind selects a tier-0 screening detector (internal/tier0): the
// nanosecond-cost family that fronts a cascade or serves on its own.
type Tier0Kind int

const (
	// Tier0EWMA is the EWMA-residual control-chart detector.
	Tier0EWMA Tier0Kind = iota
	// Tier0ZScore is the moving z-score over a per-channel ring.
	Tier0ZScore
	// Tier0Hampel is the streaming Hampel filter (median/MAD over a
	// ring).
	Tier0Hampel
	// Tier0Density is the sliding-window mean-distance density detector.
	Tier0Density
)

var tier0Names = spec.Enum[Tier0Kind]{What: "tier-0 detector", Rows: []spec.Names{
	Tier0EWMA:    {Spec: "ewma"},
	Tier0ZScore:  {Spec: "zscore", Aliases: []string{"z-score", "z"}},
	Tier0Hampel:  {Spec: "hampel"},
	Tier0Density: {Spec: "density"},
}}

// String returns the spec-grammar name.
func (t Tier0Kind) String() string { return tier0Names.Spec(t) }

// ParseTier0Kind converts a tier-0 detector name into a Tier0Kind.
func ParseTier0Kind(s string) (Tier0Kind, error) { return tier0Names.Parse(s) }

func (Tier0Kind) kind() specKind { return kindTier0 }

// Build implements Spec: a standalone tier-0 detector at the default
// window.
func (t Tier0Kind) Build(base Config) (StreamDetector, error) { return NewTier0(base, t, 0) }

// CascadeSpec describes a screening cascade: the tier-0 gate, the heavy
// member specs and the admission calibration. Zero values select the
// defaults (admit 0.1, calib 128, gate window 64).
type CascadeSpec struct {
	// Gate is the tier-0 screening detector.
	Gate Tier0Kind
	// Heavy are the admitted-traffic members (at least one), each a
	// PipelineSpec or an EnsembleSpec.
	Heavy []Spec
	// Admit is the target false-admission rate ε of the conformal gate
	// (option admit=, in (0,1); 0 = 0.1).
	Admit float64
	// Calib is the conformal calibration-window capacity (option calib=,
	// at least 8; 0 = 128).
	Calib int
	// GateWindow is the tier-0 gate's ring length (option gatewin=, at
	// least 4; 0 = 64).
	GateWindow int
}

// String renders the spec in canonical form.
func (c CascadeSpec) String() string {
	admit := c.Admit
	if admit == 0 {
		admit = 0.1
	}
	s := kindCascade.String() + "(" + c.Gate.String()
	for _, h := range c.Heavy {
		s += ", " + h.String()
	}
	s += fmt.Sprintf("; admit=%g", admit)
	if c.Calib != 0 && c.Calib != 128 {
		s += fmt.Sprintf(", calib=%d", c.Calib)
	}
	if c.GateWindow != 0 && c.GateWindow != 64 {
		s += fmt.Sprintf(", gatewin=%d", c.GateWindow)
	}
	return s + ")"
}

func (CascadeSpec) kind() specKind { return kindCascade }

// Build implements Spec; it is NewCascade.
func (c CascadeSpec) Build(base Config) (StreamDetector, error) {
	return asNode(NewCascade(base, c))
}

// NewTier0 builds a standalone tier-0 detector. The four kinds are
// first-class StreamDetectors: usable on their own via
// NewFromSpec("zscore", …), as cascade gates, and through the whole
// serving stack. base supplies the stream geometry (Channels is required;
// Seed drives Density's sampling); win is the detector's ring length
// (0 = 64).
func NewTier0(base Config, kind Tier0Kind, win int) (StreamDetector, error) {
	if base.Channels <= 0 {
		return nil, fmt.Errorf("streamad: Channels must be positive, got %d", base.Channels)
	}
	seed := base.Seed
	if seed == 0 {
		seed = 1
	}
	cfg := tier0.Config{Channels: base.Channels, Window: win, Seed: seed}
	switch kind {
	case Tier0EWMA:
		return tier0.NewEWMA(cfg)
	case Tier0ZScore:
		return tier0.NewZScore(cfg)
	case Tier0Hampel:
		return tier0.NewHampel(cfg)
	case Tier0Density:
		return tier0.NewDensity(cfg)
	default:
		return nil, fmt.Errorf("streamad: unknown Tier0Kind %d", int(kind))
	}
}

// Cascade is the two-tier screening detector: the tier-0 gate scores
// every vector and the heavy members only score vectors whose gate score
// crosses the conformal admission threshold. The embedded
// internal/cascade type has the semantics and supplies the whole
// detector surface: Step (whose Result.Source names the tier that
// produced the score — "tier0:zscore" for screened-out vectors,
// "heavy:…" for admitted ones), Stats, Save/Load, Close, and
// warm-tier paging of the heavy members. Build one with NewCascade or
// NewFromSpec. Like Detector and Ensemble, a Cascade is not safe for
// concurrent use.
type Cascade struct {
	*cascade.Cascade
	spec CascadeSpec // construction blueprint, kept for Spec()
}

// NewCascade builds a screening cascade. base supplies the stream
// geometry and tuning shared by every member, exactly as in NewEnsemble;
// heavy member i runs with base.Seed + (i+1)·1000003 so members never
// share a random stream with each other or the gate.
func NewCascade(base Config, spec CascadeSpec) (*Cascade, error) {
	if len(spec.Heavy) == 0 {
		return nil, fmt.Errorf("streamad: a cascade needs at least one heavy member")
	}
	seed := base.Seed
	if seed == 0 {
		seed = 1
	}
	gateBase := base
	gateBase.Seed = seed
	gate, err := NewTier0(gateBase, spec.Gate, spec.GateWindow)
	if err != nil {
		return nil, fmt.Errorf("streamad: cascade gate (%s): %w", spec.Gate, err)
	}
	heavy := make([]core.Node, len(spec.Heavy))
	labels := make([]string, len(spec.Heavy))
	for i, hs := range spec.Heavy {
		if hs.kind()&atHeavy == 0 {
			return nil, fmt.Errorf("streamad: cascade heavy member %d (%s) is a %v, want a %v", i, hs, hs.kind(), atHeavy&^kindModel)
		}
		cfg := base
		cfg.Seed = seed + int64(i+1)*memberSeedStride
		det, err := hs.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("streamad: cascade heavy member %d (%s): %w", i, hs, err)
		}
		heavy[i] = det
		labels[i] = hs.String()
	}
	inner, err := cascade.New(cascade.Config{
		Gate:        gate,
		GateLabel:   spec.Gate.String(),
		Heavy:       heavy,
		HeavyLabels: labels,
		Admit:       spec.Admit,
		Calib:       spec.Calib,
	})
	if err != nil {
		return nil, fmt.Errorf("streamad: %w", err)
	}
	return &Cascade{Cascade: inner, spec: spec}, nil
}

// Spec returns the cascade's specification.
func (c *Cascade) Spec() CascadeSpec { return c.spec }
