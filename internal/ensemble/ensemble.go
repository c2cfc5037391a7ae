// Package ensemble runs several complete detector pipelines ("members")
// over the same stream and aggregates their per-step anomaly scores into
// one. The paper's Table III shows that no single (model × Task 1 ×
// Task 2 × F) combination wins across Daphnet, Exathlon and SMD — the
// best detector is dataset-dependent. An ensemble hedges that no-free-
// lunch result online: instead of betting a stream on one combination, a
// handful of diverse pipelines score every vector and a combiner merges
// their verdicts.
//
// Members own no goroutines: Step runs them in member order on the
// caller, the plain fit_partial → score_partial loop PySAD uses. (A
// fork-join onto the scoring pool was removed in PR 28: a forked step
// measured 41–45 µs against 29–41 µs inline, and ten model-heavy pairs
// without it stayed inside the parent's quartile spread.)
//
// Performance weighting generalizes PCB-iForest's per-tree performance
// counters (Heigl et al.) from trees to whole pipelines: each member
// keeps a rolling counter that increments when its binary verdict (score
// ≥ Verdict) agrees with the ensemble's aggregated verdict and decrements
// otherwise. The AggPerfWeighted combiner turns the counters into
// weights, and an optional pruning policy disables members whose counter
// falls to PruneBelow — they keep stepping (and keep being judged) and
// are re-admitted once their counter recovers to zero.
package ensemble

import (
	"fmt"

	"streamad/internal/core"
)

// Config assembles an Ensemble.
type Config struct {
	// Members are the pipelines (required, at least two); they become the
	// ensemble's Children.
	Members []core.Node
	// Labels name the members for stats and metrics (optional; default
	// "member-i"). When set, one label per member.
	Labels []string
	// Agg selects the score combiner (default AggMean).
	Agg Agg
	// Verdict is the decision boundary used for the agreement counters:
	// a member "votes anomaly" when its score ≥ Verdict, and the ensemble
	// consensus is the aggregated score ≥ Verdict (default 0.5, which
	// suits the [0,1]-ranged Avg and AL scoring functions; raw
	// nonconformity scores need a calibrated value).
	Verdict float64
	// CounterCap clamps every agreement counter to [-CounterCap,
	// CounterCap], making it a rolling rather than lifetime tally
	// (default 64).
	CounterCap int
	// PruneEnabled turns on the pruning policy: a member whose counter
	// falls to PruneBelow or less is excluded from aggregation until the
	// counter recovers to ≥ 0.
	PruneEnabled bool
	// PruneBelow is the disable threshold; must be negative so a fresh
	// member (counter 0) is never born disabled (default -16).
	PruneBelow int
}

// member is the ensemble's bookkeeping for one pipeline; the pipeline
// itself is the child node at the same index.
type member struct {
	label string

	// The fields below are owned by the Step caller and by the stats
	// accessors, which the caller must serialize with Step — the same
	// contract as core.Detector.
	pc        int // rolling agreement counter
	disabled  bool
	ready     int
	fineTunes int
	lastScore float64
}

// stepOut is one member's answer for one vector.
type stepOut struct {
	res      core.Result
	ok       bool
	panicked interface{}
}

// step applies one vector to a member, converting a panic into a value
// so every member is offered every vector (their step counts never skew)
// before Step re-raises it.
func step(det core.Node, v []float64) (out stepOut) {
	defer func() {
		if p := recover(); p != nil {
			out = stepOut{panicked: p}
		}
	}()
	r, ok := det.Step(v)
	return stepOut{res: r, ok: ok}
}

// Ensemble steps N member pipelines over one stream and combines their
// scores. Like core.Detector, an Ensemble is not safe for concurrent use;
// callers serialize Step (the HTTP server holds one lock per stream).
// The embedded Composite holds the member pipelines and supplies the
// fine-tune, close and warm-tier paging walks over them.
type Ensemble struct {
	core.Composite
	members    []*member // per-pipeline counters, parallel to Nodes
	agg        Agg
	verdict    float64
	counterCap int
	pruneOn    bool
	pruneBelow int

	steps      int
	readySteps int

	outs    []stepOut // per-step member answers
	scores  []float64 // per-step aggregation scratch, refilled by collect
	nonconf []float64 // per-step aggregation scratch, refilled by collect
	weights []float64 // per-step performance weights, recomputed by collect from member counters
	scratch []float64 // combine() working buffer

	blobSize int // length of the last blob saved or loaded, the next Save's capacity
}

// New validates the configuration and returns the Ensemble.
func New(cfg Config) (*Ensemble, error) {
	if len(cfg.Members) < 2 {
		return nil, fmt.Errorf("ensemble: need at least 2 members, got %d", len(cfg.Members))
	}
	if len(cfg.Labels) != 0 && len(cfg.Labels) != len(cfg.Members) {
		return nil, fmt.Errorf("ensemble: %d labels for %d members", len(cfg.Labels), len(cfg.Members))
	}
	if cfg.Agg < AggMean || cfg.Agg > AggPerfWeighted {
		return nil, fmt.Errorf("ensemble: unknown combiner %d", int(cfg.Agg))
	}
	if cfg.Verdict == 0 {
		cfg.Verdict = 0.5
	}
	if cfg.CounterCap == 0 {
		cfg.CounterCap = 64
	}
	if cfg.CounterCap < 1 {
		return nil, fmt.Errorf("ensemble: CounterCap must be positive, got %d", cfg.CounterCap)
	}
	if cfg.PruneEnabled {
		if cfg.PruneBelow == 0 {
			cfg.PruneBelow = -16
		}
		if cfg.PruneBelow >= 0 {
			return nil, fmt.Errorf("ensemble: PruneBelow must be negative, got %d", cfg.PruneBelow)
		}
		if cfg.PruneBelow < -cfg.CounterCap {
			return nil, fmt.Errorf("ensemble: PruneBelow %d is beyond the counter cap %d, members could never be pruned",
				cfg.PruneBelow, cfg.CounterCap)
		}
	}
	n := len(cfg.Members)
	e := &Ensemble{
		Composite:  core.Composite{Nodes: cfg.Members},
		members:    make([]*member, n),
		agg:        cfg.Agg,
		verdict:    cfg.Verdict,
		counterCap: cfg.CounterCap,
		pruneOn:    cfg.PruneEnabled,
		pruneBelow: cfg.PruneBelow,
		outs:       make([]stepOut, n),
		scores:     make([]float64, 0, n),
		nonconf:    make([]float64, 0, n),
		weights:    make([]float64, 0, n),
		scratch:    make([]float64, 0, n),
	}
	for i, det := range cfg.Members {
		if det == nil {
			return nil, fmt.Errorf("ensemble: member %d is nil", i)
		}
		label := fmt.Sprintf("member-%d", i)
		if len(cfg.Labels) > 0 && cfg.Labels[i] != "" {
			label = cfg.Labels[i]
		}
		e.members[i] = &member{label: label}
	}
	return e, nil
}

// Step applies the vector to every member in order and returns the
// combined result. ok is false until at least one member has
// finished its window fill and warmup; members that are still warming are
// simply absent from the aggregate. If any member rejects the vector with
// a panic (the detectors' contract for dimension mismatch), Step re-panics
// once every member has been offered the vector, preserving the
// single-detector contract.
func (e *Ensemble) Step(s []float64) (core.Result, bool) {
	e.steps++
	for i, det := range e.Nodes {
		e.outs[i] = step(det, s)
	}
	var panicked interface{}
	for i := range e.outs {
		if e.outs[i].panicked != nil {
			panicked = e.outs[i].panicked
			break
		}
	}
	if panicked != nil {
		panic(panicked)
	}

	nReady := 0
	fineTuned := false
	for i, m := range e.members {
		o := &e.outs[i]
		if !o.ok {
			continue
		}
		nReady++
		m.ready++
		m.lastScore = o.res.Score
		if o.res.FineTuned {
			m.fineTunes++
			fineTuned = true
		}
	}
	if nReady == 0 {
		return core.Result{}, false
	}
	e.readySteps++

	// Aggregate over the ready, enabled members; if the pruning policy
	// has disabled every ready member, fall back to all ready members —
	// an ensemble never goes silent.
	e.collect(false)
	if len(e.scores) == 0 {
		e.collect(true)
	}
	f := combine(e.agg, e.scores, e.weights, &e.scratch)
	a := combine(e.agg, e.nonconf, e.weights, &e.scratch)

	// Judge every ready member against the consensus — disabled members
	// included, so they can earn their way back in.
	consensus := f >= e.verdict
	for i, m := range e.members {
		if !e.outs[i].ok {
			continue
		}
		if (e.outs[i].res.Score >= e.verdict) == consensus {
			if m.pc < e.counterCap {
				m.pc++
			}
		} else {
			if m.pc > -e.counterCap {
				m.pc--
			}
		}
		if e.pruneOn {
			if m.pc <= e.pruneBelow {
				m.disabled = true
			} else if m.disabled && m.pc >= 0 {
				m.disabled = false
			}
		}
	}
	return core.Result{Nonconformity: a, Score: f, FineTuned: fineTuned}, true
}

// collect gathers the scores, nonconformities and performance weights of
// the ready members into the ensemble's scratch slices.
func (e *Ensemble) collect(includeDisabled bool) {
	e.scores = e.scores[:0]
	e.nonconf = e.nonconf[:0]
	e.weights = e.weights[:0]
	for i, m := range e.members {
		if !e.outs[i].ok || (m.disabled && !includeDisabled) {
			continue
		}
		e.scores = append(e.scores, e.outs[i].res.Score)
		e.nonconf = append(e.nonconf, e.outs[i].res.Nonconformity)
		e.weights = append(e.weights, m.perfWeight())
	}
}

// perfWeight is the member's unnormalized aggregation weight: one plus
// the positive part of its agreement counter, PCB-iForest's counter
// scheme lifted to whole pipelines. A fresh member weighs 1; persistent
// agreement raises it; disagreement can only take it back down to 1 —
// exclusion is the pruning policy's job, not the weight's.
func (m *member) perfWeight() float64 {
	if m.pc > 0 {
		return 1 + float64(m.pc)
	}
	return 1
}

// Stats implements core.Statser: a snapshot of every member's counters
// and weights, in member order. Callers must serialize it with Step.
func (e *Ensemble) Stats() core.NodeStats {
	var sum float64
	for _, m := range e.members {
		if !m.disabled {
			sum += m.perfWeight()
		}
	}
	out := make([]core.MemberStat, len(e.members))
	for i, m := range e.members {
		var w float64
		if !m.disabled && sum > 0 {
			w = m.perfWeight() / sum
		}
		out[i] = core.MemberStat{
			Index:     i,
			Label:     m.label,
			Ready:     m.ready,
			FineTunes: m.fineTunes,
			Agreement: m.pc,
			Weight:    w,
			Disabled:  m.disabled,
			LastScore: m.lastScore,
		}
	}
	return core.NodeStats{Members: out}
}

// Steps returns the number of stream vectors consumed, including warmup.
func (e *Ensemble) Steps() int { return e.steps }

// ReadySteps returns the number of steps on which the ensemble produced a
// combined score.
func (e *Ensemble) ReadySteps() int { return e.readySteps }

// FineTunes returns the total fine-tuning sessions across all members.
func (e *Ensemble) FineTunes() int {
	total := 0
	for _, m := range e.members {
		total += m.fineTunes
	}
	return total
}
