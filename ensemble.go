package streamad

import (
	"fmt"
	"strings"

	"streamad/internal/core"
	"streamad/internal/ensemble"
	"streamad/internal/ingest"
)

// AggKind selects the ensemble's score combiner.
type AggKind = ensemble.Agg

// The ensemble combiners: unweighted mean, most-alarmed member, member
// median, trimmed mean (⌈n/4⌉ dropped from each end) and the
// performance-weighted mean driven by the members' rolling agreement
// counters.
const (
	AggMean         = ensemble.AggMean
	AggMax          = ensemble.AggMax
	AggMedian       = ensemble.AggMedian
	AggTrimmedMean  = ensemble.AggTrimmedMean
	AggPerfWeighted = ensemble.AggPerfWeighted
)

// MemberStat re-exports one ensemble member's observable state.
type MemberStat = ensemble.MemberStat

// StreamDetector is the behavioral contract shared by single-pipeline
// detectors (*Detector) and ensembles (*Ensemble): streaming scoring plus
// full-state checkpointing. The serving stack — the sharded ingestion
// registry (internal/ingest) and the HTTP server on top of it — and the
// CLIs program against it, so an ensemble drops in anywhere one pipeline
// did.
type StreamDetector interface {
	// Step consumes the next stream vector; ok is false during window
	// fill and warmup.
	Step(s []float64) (Result, bool)
	// Run scores an entire series with a validity mask.
	Run(series [][]float64) (scores []float64, valid []bool)
	// Steps returns the number of stream vectors consumed.
	Steps() int
	// FineTunes returns the drift-triggered fine-tuning sessions so far.
	FineTunes() int
	// Save returns a full checkpoint; Load restores one bit-identically.
	Save() ([]byte, error)
	Load(data []byte) error
}

var (
	_ StreamDetector = (*Detector)(nil)
	_ StreamDetector = (*Ensemble)(nil)

	// Every StreamDetector is admissible to the ingestion layer: it can
	// be stepped by the batching dispatcher and checkpointed by the
	// snapshotter/evictor. Breaking either facet breaks the daemon.
	_ ingest.Stepper      = (StreamDetector)(nil)
	_ ingest.Checkpointer = (StreamDetector)(nil)

	// Detectors and ensembles support warm-tier paging (core.Pager), so
	// the registry's tiering policy can demote their window state.
	_ core.Pager = (*Detector)(nil)
	_ core.Pager = (*Ensemble)(nil)
)

// PipelineSpec names one detector pipeline: the (model × Task 1 × Task 2
// × F) combination of the paper's grid.
type PipelineSpec struct {
	Model ModelKind
	Task1 Task1
	Task2 Task2
	Score ScoreKind
	// Async requests the serve/train split for this pipeline (the spec
	// grammar's trailing "+async" token); see Config.AsyncFineTune.
	Async bool
}

// String renders the spec in the compact grammar form accepted by
// ParsePipelineSpec, e.g. "arima+sw+kswin+al" or
// "usad+sw+musigma+al+async".
func (p PipelineSpec) String() string {
	s := specModelName(p.Model) + "+" + specTask1Name(p.Task1) + "+" +
		specTask2Name(p.Task2) + "+" + specScoreName(p.Score)
	if p.Async {
		s += "+async"
	}
	return s
}

// EnsembleSpec describes an ensemble: its member pipelines and the
// aggregation/pruning policy. The zero values of the policy fields select
// the defaults (mean combiner, verdict 0.5, counter cap 64, no pruning).
type EnsembleSpec struct {
	// Members are the pipelines (at least two).
	Members []PipelineSpec
	// Agg is the score combiner.
	Agg AggKind
	// Verdict is the binary-verdict boundary for the agreement counters
	// (0 = 0.5).
	Verdict float64
	// CounterCap bounds the rolling agreement counters (0 = 64).
	CounterCap int
	// PruneEnabled activates the pruning policy: members whose counter
	// reaches PruneBelow are excluded from aggregation until it recovers
	// to zero.
	PruneEnabled bool
	// PruneBelow is the (negative) disable threshold (0 = -16 when
	// pruning is enabled).
	PruneBelow int
}

// String renders the spec in the grammar form accepted by
// ParseEnsembleSpec.
func (e EnsembleSpec) String() string {
	parts := make([]string, len(e.Members))
	for i, m := range e.Members {
		parts[i] = m.String()
	}
	s := "ensemble(" + strings.Join(parts, ", ") + "; agg=" + e.Agg.String()
	if e.Verdict != 0 && e.Verdict != 0.5 {
		s += fmt.Sprintf(", verdict=%g", e.Verdict)
	}
	if e.CounterCap != 0 && e.CounterCap != 64 {
		s += fmt.Sprintf(", cap=%d", e.CounterCap)
	}
	if e.PruneEnabled {
		below := e.PruneBelow
		if below == 0 {
			below = -16
		}
		s += fmt.Sprintf(", prune=%d", below)
	}
	return s + ")"
}

// memberSeedStride separates the member RNG seed lanes: member i runs
// with Seed + i·stride, so two members with identical pipeline specs
// still draw independent reservoir samples, forest shapes and weight
// initializations — the ensemble's bagging diversity.
const memberSeedStride int64 = 1_000_003

// Ensemble runs several complete detector pipelines concurrently over one
// stream and combines their per-step scores; see internal/ensemble for
// the aggregation and performance-weighting machinery. Build one with
// NewEnsemble or NewFromSpec. Like Detector, an Ensemble is not safe for
// concurrent use.
type Ensemble struct {
	inner *ensemble.Ensemble
	spec  EnsembleSpec //streamad:transient construction blueprint kept for Spec(); Save/Load round-trips the inner ensemble's state
}

// NewEnsemble builds an ensemble detector. base supplies the stream
// geometry and tuning shared by every member (Channels is required;
// Window, TrainSize, warmup, Sanitize and the rest apply to each member);
// base's Model/Task1/Task2/Score are ignored in favor of the member
// specs. Member i runs with base.Seed + i·1000003, so members — even two
// with the same spec — never share a random stream, while the whole
// ensemble stays reproducible from base.Seed.
func NewEnsemble(base Config, spec EnsembleSpec) (*Ensemble, error) {
	if len(spec.Members) < 2 {
		return nil, fmt.Errorf("streamad: an ensemble needs at least 2 members, got %d", len(spec.Members))
	}
	seed := base.Seed
	if seed == 0 {
		seed = 1
	}
	members := make([]ensemble.Member, len(spec.Members))
	labels := make([]string, len(spec.Members))
	for i, ms := range spec.Members {
		cfg := base
		cfg.Model, cfg.Task1, cfg.Task2, cfg.Score = ms.Model, ms.Task1, ms.Task2, ms.Score
		cfg.AsyncFineTune = base.AsyncFineTune || ms.Async
		cfg.Seed = seed + int64(i)*memberSeedStride
		det, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("streamad: ensemble member %d (%s): %w", i, ms, err)
		}
		members[i] = det
		labels[i] = ms.String()
	}
	inner, err := ensemble.New(ensemble.Config{
		Members:      members,
		Labels:       labels,
		Pool:         base.ScorePool,
		Agg:          spec.Agg,
		Verdict:      spec.Verdict,
		CounterCap:   spec.CounterCap,
		PruneEnabled: spec.PruneEnabled,
		PruneBelow:   spec.PruneBelow,
	})
	if err != nil {
		return nil, fmt.Errorf("streamad: %w", err)
	}
	return &Ensemble{inner: inner, spec: spec}, nil
}

// NewFromSpec builds a detector from a spec string: a single pipeline
// ("usad+sw+musigma+al"), an ensemble
// ("ensemble(arima+sw+kswin, usad+ares+regular; agg=median)"), a
// screening cascade ("cascade(zscore, knn; admit=0.05)") or a standalone
// tier-0 detector ("hampel"). base supplies everything the spec doesn't
// (Channels, Window, Seed, …); its Model/Task1/Task2/Score are
// overridden by the spec.
func NewFromSpec(spec string, base Config) (StreamDetector, error) {
	if IsCascadeSpec(spec) {
		cs, err := ParseCascadeSpec(spec)
		if err != nil {
			return nil, err
		}
		return NewCascade(base, cs)
	}
	if IsEnsembleSpec(spec) {
		es, err := ParseEnsembleSpec(spec)
		if err != nil {
			return nil, err
		}
		return NewEnsemble(base, es)
	}
	if IsTier0Spec(spec) {
		kind, err := ParseTier0Kind(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		return NewTier0(base, kind, 0)
	}
	ps, err := ParsePipelineSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg := base
	cfg.Model, cfg.Task1, cfg.Task2, cfg.Score = ps.Model, ps.Task1, ps.Task2, ps.Score
	cfg.AsyncFineTune = base.AsyncFineTune || ps.Async
	return New(cfg)
}

// Step consumes the next stream vector, stepping every member
// concurrently; ok becomes true once at least one member scores.
func (e *Ensemble) Step(s []float64) (Result, bool) { return e.inner.Step(s) }

// Run scores an entire series, returning per-step combined scores and a
// validity mask.
func (e *Ensemble) Run(series [][]float64) (scores []float64, valid []bool) {
	scores = make([]float64, len(series))
	valid = make([]bool, len(series))
	for i, s := range series {
		if res, ok := e.Step(s); ok {
			scores[i] = res.Score
			valid[i] = true
		}
	}
	return scores, valid
}

// Steps returns the number of stream vectors consumed, including warmup.
func (e *Ensemble) Steps() int { return e.inner.Steps() }

// FineTunes returns the total drift-triggered fine-tuning sessions across
// all members.
func (e *Ensemble) FineTunes() int { return e.inner.FineTunes() }

// FineTuneStats aggregates the members' serve/train split statistics.
// Safe from any goroutine.
func (e *Ensemble) FineTuneStats() FineTuneStats { return e.inner.FineTuneStats() }

// WaitFineTune drains every member's in-flight asynchronous fine-tune.
// Serialize with Step, like the single-pipeline variant.
func (e *Ensemble) WaitFineTune() { e.inner.WaitFineTune() }

// MemberStats returns each member's counters, weight and last score.
func (e *Ensemble) MemberStats() []MemberStat { return e.inner.MemberStats() }

// Spec returns the ensemble's member and policy specification.
func (e *Ensemble) Spec() EnsembleSpec { return e.spec }

// Save returns a binary checkpoint composing every member's full
// checkpoint (model, optimizer, window, training set, RNG positions)
// with the ensemble's agreement counters and pruning state. An ensemble
// restored with Load scores bit-identically to an uninterrupted run.
func (e *Ensemble) Save() ([]byte, error) { return e.inner.Save() }

// AppendBinary appends the Save checkpoint to dst, so a cascade composing
// this ensemble writes it into its own buffer instead of copying a blob.
func (e *Ensemble) AppendBinary(dst []byte) ([]byte, error) { return e.inner.AppendBinary(dst) }

// Load restores a checkpoint produced by Save. The ensemble must have
// been built with the same specification and base configuration; member
// and policy mismatches are rejected.
func (e *Ensemble) Load(data []byte) error { return e.inner.Load(data) }

// PageOut demotes every member to the warm tier (drain fine-tunes,
// serialize window state, release backing storage) and returns the
// combined blob; models stay resident. Step panics until PageIn.
func (e *Ensemble) PageOut() ([]byte, error) { return e.inner.PageOut() }

// PageIn restores state paged out by PageOut, bit-identically.
func (e *Ensemble) PageIn(blob []byte) error { return e.inner.PageIn(blob) }

// Paged reports whether the members' window state is paged out.
func (e *Ensemble) Paged() bool { return e.inner.Paged() }

// Close drains every member's in-flight fine-tune so no trainer-pool
// task outlives the ensemble. The ensemble remains usable; optional for
// process-lifetime ensembles.
func (e *Ensemble) Close() { e.inner.Close() }
