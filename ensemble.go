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

// ParseAggKind converts an ensemble-combiner name into an AggKind.
func ParseAggKind(s string) (AggKind, error) { return ensemble.AggNames.Parse(s) }

// StreamDetector is the one detector contract (core.Node), shared by
// single-pipeline detectors (*Detector), ensembles (*Ensemble), cascades
// (*Cascade) and the tier-0 detectors: streaming scoring, full-state
// checkpointing (Save/Load bit-identically; AppendBinary into a parent's
// buffer) and Children, so any of them composes into a tree. The serving
// stack — the sharded ingestion registry (internal/ingest) and the HTTP
// server on top of it — and the CLIs program against it, so an ensemble
// or cascade drops in anywhere one pipeline did. Run scores a whole
// series with any of them.
type StreamDetector = core.Node

var (
	// Every StreamDetector is admissible to the ingestion layer: it can
	// be stepped by the batching dispatcher and checkpointed by the
	// snapshotter/evictor. Breaking either facet breaks the daemon.
	_ ingest.Stepper      = (StreamDetector)(nil)
	_ ingest.Checkpointer = (StreamDetector)(nil)

	// Everything with a model — pipelines, and the ensembles and cascades
	// over them — supports warm-tier paging (core.Pager), so the
	// registry's tiering policy can demote its window state, and releases
	// background training on Close (core.Closer).
	_ core.Pager  = (*Detector)(nil)
	_ core.Pager  = (*Ensemble)(nil)
	_ core.Pager  = (*Cascade)(nil)
	_ core.Closer = (*Detector)(nil)
	_ core.Closer = (*Ensemble)(nil)
	_ core.Closer = (*Cascade)(nil)
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

// String renders the spec in canonical form, e.g. "arima+sw+kswin+al" or
// "usad+sw+musigma+al+async".
func (p PipelineSpec) String() string {
	s := modelNames.Spec(p.Model) + "+" + task1Names.Spec(p.Task1) + "+" +
		task2Names.Spec(p.Task2) + "+" + scoreNames.Spec(p.Score)
	if p.Async {
		s += "+" + asyncToken
	}
	return s
}

func (PipelineSpec) kind() specKind { return kindPipeline }

// Build implements Spec: New with the pipeline's four choices (and its
// async token) laid over base.
func (p PipelineSpec) Build(base Config) (StreamDetector, error) {
	cfg := base
	cfg.Model, cfg.Task1, cfg.Task2, cfg.Score = p.Model, p.Task1, p.Task2, p.Score
	cfg.AsyncFineTune = base.AsyncFineTune || p.Async
	return asNode(New(cfg))
}

// EnsembleSpec describes an ensemble: its member pipelines and the
// aggregation/pruning policy. The zero values of the policy fields select
// the defaults (mean combiner, verdict 0.5, counter cap 64, no pruning).
type EnsembleSpec struct {
	// Members are the pipelines (at least two).
	Members []PipelineSpec
	// Agg is the score combiner (option agg=mean|max|median|trimmed|perf).
	Agg AggKind
	// Verdict is the binary-verdict boundary for the agreement counters
	// (option verdict=; 0 = 0.5).
	Verdict float64
	// CounterCap bounds the rolling agreement counters (option cap=, at
	// least 1; 0 = 64).
	CounterCap int
	// PruneEnabled activates the pruning policy: members whose counter
	// reaches PruneBelow are excluded from aggregation until it recovers
	// to zero. The prune= option sets both.
	PruneEnabled bool
	// PruneBelow is the (negative) disable threshold (0 = -16 when
	// pruning is enabled).
	PruneBelow int
}

// String renders the spec in canonical form.
func (e EnsembleSpec) String() string {
	parts := make([]string, len(e.Members))
	for i, m := range e.Members {
		parts[i] = m.String()
	}
	s := kindEnsemble.String() + "(" + strings.Join(parts, ", ") + "; agg=" + e.Agg.String()
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

func (EnsembleSpec) kind() specKind { return kindEnsemble }

// Build implements Spec; it is NewEnsemble.
func (e EnsembleSpec) Build(base Config) (StreamDetector, error) {
	return asNode(NewEnsemble(base, e))
}

// memberSeedStride separates the member RNG seed lanes: member i runs
// with Seed + i·stride, so two members with identical pipeline specs
// still draw independent reservoir samples, forest shapes and weight
// initializations — the ensemble's bagging diversity.
const memberSeedStride int64 = 1_000_003

// Ensemble runs several complete detector pipelines over one
// stream and combines their per-step scores; the embedded
// internal/ensemble type is the aggregation and performance-weighting
// machinery and supplies the whole detector surface (Step, Stats,
// Save/Load, paging, Close). Build one with NewEnsemble or NewFromSpec.
// Like Detector, an Ensemble is not safe for concurrent use.
type Ensemble struct {
	*ensemble.Ensemble
	spec EnsembleSpec // construction blueprint, kept for Spec()
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
	members := make([]core.Node, len(spec.Members))
	labels := make([]string, len(spec.Members))
	for i, ms := range spec.Members {
		cfg := base
		cfg.Seed = seed + int64(i)*memberSeedStride
		det, err := ms.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("streamad: ensemble member %d (%s): %w", i, ms, err)
		}
		members[i] = det
		labels[i] = ms.String()
	}
	inner, err := ensemble.New(ensemble.Config{
		Members:      members,
		Labels:       labels,
		Agg:          spec.Agg,
		Verdict:      spec.Verdict,
		CounterCap:   spec.CounterCap,
		PruneEnabled: spec.PruneEnabled,
		PruneBelow:   spec.PruneBelow,
	})
	if err != nil {
		return nil, fmt.Errorf("streamad: %w", err)
	}
	return &Ensemble{Ensemble: inner, spec: spec}, nil
}

// Spec returns the ensemble's member and policy specification.
func (e *Ensemble) Spec() EnsembleSpec { return e.spec }
