// Package cascade implements the two-tier screening detector: a tier-0
// gate (internal/tier0) scores every vector for nanoseconds, and the
// heavy members — full ML pipelines or ensembles — only see vectors
// whose gate score is anomalous under a conformal admission test
// (internal/score.Conformal). Screened-out vectors pass the gate's own
// score and verdict through, so the cascade is a complete detector node
// (core.Node) with the cost profile of the gate on >90% of traffic.
//
// Admission is calibrated, not a raw percentile: the gate score's
// conformal p-value against a sliding calibration window of recent gate
// scores is compared to the target false-admission rate ε, so "admit"
// means "this vector is in the gate's top ε tail regardless of the
// score's scale or drift". Every gate score enters the calibration
// window — admitted ones included — so the window tracks the marginal
// score distribution and the observed false-admission rate stays ≈ ε
// under exchangeability.
//
// Until the gate is ready, the calibration window has MinCalib scores
// and every heavy member has scored at least once, vectors are forwarded
// to the heavy tier unconditionally (counted separately as Forwarded):
// heavy pipelines need the full stream to fill windows and warm up, and
// an uncalibrated gate must not screen. Heavy members never see screened
// vectors at all — their windows and training sets simply advance more
// slowly — which is the entire cost win.
package cascade

import (
	"fmt"

	"streamad/internal/core"
	"streamad/internal/score"
)

// Config assembles a Cascade.
type Config struct {
	// Gate is the tier-0 screening detector (required).
	Gate core.Node
	// GateLabel names the gate for stats and Result.Source (default
	// "gate").
	GateLabel string
	// Heavy are the admitted-traffic detectors (required, at least one).
	Heavy []core.Node
	// HeavyLabels name the heavy members (optional; default "heavy-i").
	HeavyLabels []string
	// Admit is the target false-admission rate ε (default 0.1).
	Admit float64
	// Calib is the conformal calibration-window capacity (default 128).
	Calib int
	// MinCalib is the number of calibration scores required before
	// screening activates (default max(32, ⌈1/Admit⌉), capped at Calib —
	// below 1/ε−1 scores no vector can be admitted at all, so screening
	// earlier would blind the heavy tier).
	MinCalib int
}

// Cascade steps the gate on every vector and the heavy members on
// admitted ones. Like core.Detector it is not safe for concurrent use;
// callers serialize Step. The embedded Composite holds the gate (child 0)
// and the heavy members (the rest) and supplies the fine-tune, close and
// warm-tier paging walks: heavy members page; the gate's O(window·N) ring
// and the conformal window stay resident, as a model does.
type Cascade struct {
	core.Composite
	gateLabel   string
	gateSource  string // result-source label derived from the gate spec at construction
	heavyLabels []string
	heavySource string // result-source label derived from the heavy specs at construction
	admit       float64
	calib       int
	minCalib    int
	conf        *score.Conformal

	heavyReady    []bool
	allHeavyReady bool

	steps     int
	screened  int
	admitted  int
	forwarded int
	fineTunes int
	lastP     float64
}

// New validates the configuration and returns a Cascade.
func New(cfg Config) (*Cascade, error) {
	if cfg.Gate == nil {
		return nil, fmt.Errorf("cascade: gate is required")
	}
	if len(cfg.Heavy) == 0 {
		return nil, fmt.Errorf("cascade: need at least one heavy member")
	}
	if len(cfg.HeavyLabels) != 0 && len(cfg.HeavyLabels) != len(cfg.Heavy) {
		return nil, fmt.Errorf("cascade: %d labels for %d heavy members", len(cfg.HeavyLabels), len(cfg.Heavy))
	}
	if cfg.Admit == 0 {
		cfg.Admit = 0.1
	}
	if cfg.Admit <= 0 || cfg.Admit >= 1 {
		return nil, fmt.Errorf("cascade: Admit must be in (0,1), got %g", cfg.Admit)
	}
	if cfg.Calib == 0 {
		cfg.Calib = 128
	}
	if cfg.Calib < 8 {
		return nil, fmt.Errorf("cascade: Calib must be at least 8, got %d", cfg.Calib)
	}
	if cfg.MinCalib == 0 {
		cfg.MinCalib = 32
		if need := int(1/cfg.Admit) + 1; need > cfg.MinCalib {
			cfg.MinCalib = need
		}
		if cfg.MinCalib > cfg.Calib {
			cfg.MinCalib = cfg.Calib
		}
	}
	if cfg.MinCalib < 1 || cfg.MinCalib > cfg.Calib {
		return nil, fmt.Errorf("cascade: MinCalib must be in [1, Calib=%d], got %d", cfg.Calib, cfg.MinCalib)
	}
	gateLabel := cfg.GateLabel
	if gateLabel == "" {
		gateLabel = "gate"
	}
	labels := make([]string, len(cfg.Heavy))
	for i := range cfg.Heavy {
		if cfg.Heavy[i] == nil {
			return nil, fmt.Errorf("cascade: heavy member %d is nil", i)
		}
		labels[i] = fmt.Sprintf("heavy-%d", i)
		if len(cfg.HeavyLabels) > 0 && cfg.HeavyLabels[i] != "" {
			labels[i] = cfg.HeavyLabels[i]
		}
	}
	heavySource := "heavy"
	if len(cfg.Heavy) == 1 {
		heavySource = "heavy:" + labels[0]
	}
	return &Cascade{
		Composite:   core.Composite{Nodes: append([]core.Node{cfg.Gate}, cfg.Heavy...)},
		gateLabel:   gateLabel,
		gateSource:  "tier0:" + gateLabel,
		heavyLabels: labels,
		heavySource: heavySource,
		admit:       cfg.Admit,
		calib:       cfg.Calib,
		minCalib:    cfg.MinCalib,
		conf:        score.NewConformal(cfg.Calib, cfg.Admit),
		heavyReady:  make([]bool, len(cfg.Heavy)),
		lastP:       1,
	}, nil
}

// Step consumes the next stream vector: the gate scores it, its score
// joins the conformal calibration window, and the vector reaches the
// heavy members only when screening is inactive (ramp-up) or the gate
// p-value is ≤ ε. ok is false only while neither tier can score.
func (c *Cascade) Step(s []float64) (core.Result, bool) {
	c.steps++
	gate, heavy := c.Nodes[0], c.Nodes[1:]
	gRes, gOK := gate.Step(s)
	if gOK {
		c.lastP = c.conf.PValue(gRes.Score)
		c.conf.Observe(gRes.Score)
	}
	if gOK && c.allHeavyReady && c.conf.N() >= c.minCalib {
		// Screening is active: the conformal gate decides.
		if c.lastP > c.admit {
			c.screened++
			gRes.Source = c.gateSource
			// Screened results carry the gate's bounded score as their
			// nonconformity: the gate's raw nonconformity is on the
			// tier-0 z-scale, and letting it into the mixed stream a
			// downstream thresholder sees would drown the heavy members'
			// [0,1]-calibrated scores.
			gRes.Nonconformity = gRes.Score
			return gRes, true
		}
		c.admitted++
	} else {
		c.forwarded++
	}

	// Forward to the heavy tier and combine by unweighted mean over the
	// ready members.
	var sumF, sumA float64
	nReady := 0
	fineTuned := false
	for i, m := range heavy {
		res, ok := m.Step(s)
		if !ok {
			continue
		}
		c.heavyReady[i] = true
		nReady++
		sumF += res.Score
		sumA += res.Nonconformity
		if res.FineTuned {
			fineTuned = true
		}
	}
	if fineTuned {
		c.fineTunes++
	}
	if !c.allHeavyReady && nReady == len(heavy) {
		all := true
		for _, r := range c.heavyReady {
			all = all && r
		}
		c.allHeavyReady = all
	}
	if nReady > 0 {
		n := float64(nReady)
		return core.Result{
			Nonconformity: sumA / n,
			Score:         sumF / n,
			FineTuned:     fineTuned,
			Source:        c.heavySource,
		}, true
	}
	// Heavy tier still warming; the gate's score is better than silence.
	if gOK {
		gRes.Source = c.gateSource
		return gRes, true
	}
	return core.Result{}, false
}

// Steps returns the number of stream vectors consumed.
func (c *Cascade) Steps() int { return c.steps }

// FineTunes returns the steps on which at least one heavy member
// fine-tuned.
func (c *Cascade) FineTunes() int { return c.fineTunes }

// Stats implements core.Statser: a snapshot of the cascade's counters.
// Callers must serialize it with Step.
func (c *Cascade) Stats() core.NodeStats {
	st := core.CascadeStats{
		GateLabel:   c.gateLabel,
		HeavyLabels: append([]string(nil), c.heavyLabels...),
		Steps:       c.steps,
		Screened:    c.screened,
		Admitted:    c.admitted,
		Forwarded:   c.forwarded,
		AdmitTarget: c.admit,
		CalibN:      c.conf.N(),
		CalibCap:    c.calib,
		Screening:   c.allHeavyReady && c.conf.N() >= c.minCalib,
		LastPValue:  c.lastP,
	}
	if dec := c.admitted + c.screened; dec > 0 {
		st.AdmissionRate = float64(c.admitted) / float64(dec)
	}
	if c.steps > 0 {
		st.HeavyRate = float64(c.admitted+c.forwarded) / float64(c.steps)
	}
	return core.NodeStats{Cascade: &st}
}
