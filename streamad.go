// Package streamad is a streaming anomaly detection library for
// multivariate time series, reproducing the extended SAFARI framework of
// Koch, Petry and Werner (ICDE 2024): every detector is assembled from a
// data representation, a Task 1 learning strategy maintaining the training
// set, a Task 2 strategy triggering drift-driven fine-tuning, a machine
// learning model, a nonconformity measure and an anomaly scoring function.
//
// The quickest route is Config + New:
//
//	det, err := streamad.New(streamad.Config{
//		Model:    streamad.ModelUSAD,
//		Task1:    streamad.TaskSlidingWindow,
//		Task2:    streamad.TaskMuSigma,
//		Score:    streamad.ScoreLikelihood,
//		Channels: 9,
//	})
//	for _, s := range stream {
//		if res, ok := det.Step(s); ok && res.Score > 0.9 {
//			// anomaly
//		}
//	}
//
// Ensembles, screening cascades and the tier-0 detectors are built from a
// spec string (NewFromSpec) and share the one StreamDetector contract.
// Combos enumerates the paper's 26 evaluated algorithm combinations.
package streamad

import (
	"encoding"
	"fmt"
	"math/rand"

	"streamad/internal/arima"
	"streamad/internal/autoenc"
	"streamad/internal/core"
	"streamad/internal/drift"
	"streamad/internal/iforest"
	"streamad/internal/knn"
	"streamad/internal/nbeats"
	"streamad/internal/pool"
	"streamad/internal/randstate"
	"streamad/internal/reservoir"
	"streamad/internal/score"
	"streamad/internal/spec"
	"streamad/internal/usad"
	"streamad/internal/varmodel"
	"streamad/internal/wire"
)

// ModelKind selects the machine learning model.
type ModelKind int

const (
	// ModelARIMA is the online ARIMA(q+m, d, 0) forecaster of Liu et al.
	ModelARIMA ModelKind = iota
	// ModelPCBIForest is the performance-counter-based streaming isolation
	// forest of Heigl et al.
	ModelPCBIForest
	// ModelAE is the two-layer reconstruction autoencoder baseline.
	ModelAE
	// ModelUSAD is the adversarial autoencoder of Audibert et al.
	ModelUSAD
	// ModelNBEATS is the basis-expansion forecaster of Oreshkin et al.
	ModelNBEATS
	// ModelVAR is the least-squares vector autoregression; described in the
	// paper's methods section (it is not part of the 26-algorithm grid) and
	// restricted to the sliding-window Task 1 strategy.
	ModelVAR
	// ModelARIMAONS is the online ARIMA trained with the Online Newton
	// Step of Liu et al. instead of plain gradient descent — an extension
	// beyond the paper's grid.
	ModelARIMAONS
	// ModelKNN is the similarity-based k-NN nonconformity detector of the
	// original SAFARI framework, provided as the predecessor baseline.
	ModelKNN
)

var modelNames = spec.Enum[ModelKind]{What: "model", Rows: []spec.Names{
	ModelARIMA:      {Spec: "arima", Label: "Online ARIMA"},
	ModelPCBIForest: {Spec: "pcb", Aliases: []string{"pcb-iforest", "iforest"}, Label: "PCB-iForest"},
	ModelAE:         {Spec: "ae", Aliases: []string{"autoencoder"}, Label: "2-layer AE"},
	ModelUSAD:       {Spec: "usad", Label: "USAD"},
	ModelNBEATS:     {Spec: "nbeats", Aliases: []string{"n-beats"}, Label: "N-BEATS"},
	ModelVAR:        {Spec: "var", Label: "VAR"},
	ModelARIMAONS:   {Spec: "arima-ons", Aliases: []string{"arimaons", "ons"}, Label: "Online ARIMA (ONS)"},
	ModelKNN:        {Spec: "knn", Label: "kNN (SAFARI)"},
}}

// String returns the model name as used in Table III.
func (m ModelKind) String() string { return modelNames.Label(m) }

// ParseModelKind converts a model name into a ModelKind. Like every
// Parse* of an enum it is case-insensitive and reads the name table beside
// the enum's constants, one row per value: the canonical spec-grammar
// name, the aliases also accepted, and the paper's Table I/III label that
// String returns. The spec printer and the CLIs' flag help read the same
// rows.
func ParseModelKind(s string) (ModelKind, error) { return modelNames.Parse(s) }

// Task1 selects the training-set maintenance strategy.
type Task1 int

const (
	// TaskSlidingWindow keeps the m most recent feature vectors.
	TaskSlidingWindow Task1 = iota
	// TaskUniformReservoir keeps a uniform sample of the stream.
	TaskUniformReservoir
	// TaskAnomalyReservoir keeps the most "normal" vectors by priority.
	TaskAnomalyReservoir
)

var task1Names = spec.Enum[Task1]{What: "task1 strategy", Rows: []spec.Names{
	TaskSlidingWindow:    {Spec: "sw", Aliases: []string{"sliding", "sliding-window"}, Label: "SW"},
	TaskUniformReservoir: {Spec: "ures", Aliases: []string{"uniform"}, Label: "URES"},
	TaskAnomalyReservoir: {Spec: "ares", Aliases: []string{"anomaly-aware"}, Label: "ARES"},
}}

// String returns the Table I abbreviation.
func (t Task1) String() string { return task1Names.Label(t) }

// ParseTask1 converts a training-set strategy name into a Task1.
func ParseTask1(s string) (Task1, error) { return task1Names.Parse(s) }

// Task2 selects the concept-drift / fine-tuning trigger.
type Task2 int

const (
	// TaskMuSigma is the μ/σ-Change strategy.
	TaskMuSigma Task2 = iota
	// TaskKSWIN is the per-channel two-sample Kolmogorov–Smirnov strategy.
	TaskKSWIN
	// TaskRegular fine-tunes on a fixed cadence (the paper's baseline
	// "regular fine-tuning"; not part of the Table III grid).
	TaskRegular
	// TaskADWIN is the adaptive-windowing detector of Bifet & Gavaldà,
	// discussed in the paper's related work — an extension beyond the
	// evaluated grid.
	TaskADWIN
)

var task2Names = spec.Enum[Task2]{What: "task2 strategy", Rows: []spec.Names{
	TaskMuSigma: {Spec: "musigma", Aliases: []string{"mu-sigma", "ms"}, Label: "μ/σ"},
	TaskKSWIN:   {Spec: "kswin", Aliases: []string{"ks"}, Label: "KS"},
	TaskRegular: {Spec: "regular"},
	TaskADWIN:   {Spec: "adwin", Label: "ADWIN"},
}}

// String returns the Table I abbreviation.
func (t Task2) String() string { return task2Names.Label(t) }

// ParseTask2 converts a drift-strategy name into a Task2.
func ParseTask2(s string) (Task2, error) { return task2Names.Parse(s) }

// ScoreKind selects the anomaly scoring function F.
type ScoreKind int

const (
	// ScoreAverage averages the last k nonconformity scores.
	ScoreAverage ScoreKind = iota
	// ScoreLikelihood is the Numenta anomaly likelihood.
	ScoreLikelihood
	// ScoreRaw passes nonconformity scores through unchanged.
	ScoreRaw
)

var scoreNames = spec.Enum[ScoreKind]{What: "score kind", Rows: []spec.Names{
	ScoreAverage:    {Spec: "avg", Aliases: []string{"average"}, Label: "Avg"},
	ScoreLikelihood: {Spec: "al", Aliases: []string{"likelihood", "anomaly-likelihood"}, Label: "AL"},
	ScoreRaw:        {Spec: "raw", Label: "Raw"},
}}

// String returns the Table III abbreviation.
func (s ScoreKind) String() string { return scoreNames.Label(s) }

// ParseScoreKind converts an anomaly-score name into a ScoreKind.
func ParseScoreKind(s string) (ScoreKind, error) { return scoreNames.Parse(s) }

// Config assembles a detector. Channels is required; everything else has
// paper-faithful defaults.
type Config struct {
	// Model, Task1, Task2 and Score pick the algorithm combination.
	Model ModelKind
	Task1 Task1
	Task2 Task2
	Score ScoreKind

	// Channels is the stream dimensionality N (required).
	Channels int
	// Window is the data representation length w in stream rows
	// (default 100, the paper's setting).
	Window int
	// TrainSize is the training-set capacity m (default 500).
	TrainSize int
	// WarmupVectors is the number of feature vectors collected before the
	// initial fit (default TrainSize; the paper uses the first 5000 steps).
	WarmupVectors int
	// ScoreWindow is the anomaly-scoring window k (default Window).
	ScoreWindow int
	// ShortWindow is the anomaly-likelihood short window k' (default
	// max(ScoreWindow/10, 2)).
	ShortWindow int
	// Alpha is the KSWIN significance level (default 0.01).
	Alpha float64
	// KSCheckEvery throttles KSWIN to every k-th training-set change
	// (default 1 = test at every step, as in the paper; larger values trade
	// fidelity for speed).
	KSCheckEvery int
	// RegularInterval is the cadence of TaskRegular (default TrainSize).
	RegularInterval int
	// ADWINDelta is the TaskADWIN confidence parameter (default 0.002).
	ADWINDelta float64
	// InitEpochs is the number of initial-fit epochs (default 1; neural
	// models benefit from a few more).
	InitEpochs int
	// PreTrained skips the initial fit at warmup end, for detectors whose
	// model is restored from a SaveModel snapshot.
	PreTrained bool
	// Sanitize repairs NaN/±Inf input values with the channel's last
	// finite value instead of letting them poison the statistics.
	Sanitize bool
	// Attribution computes each channel's share of the prediction error
	// per step (Result.Attribution), so alerts can name the channels that
	// drove them. Only available for predictor models.
	Attribution bool
	// AsyncFineTune enables the serve/train split: a drift trigger's
	// fine-tune trains a model clone on a copy of the training set in the
	// background while scoring continues on the old parameters, and the
	// step exactly 32 after the trigger swaps it in — waiting for it if
	// need be — so scores are a pure function of the input. Models that
	// cannot clone (PCB-iForest, VAR) stay synchronous, the default, which
	// trains in place within the triggering step.
	AsyncFineTune bool
	// TrainerPool runs asynchronous fine-tunes on a shared K-slot pool
	// instead of a goroutine each. TrainerKey is the pool's fairness key —
	// detectors sharing a key (e.g. members of one stream's ensemble)
	// compete as one principal, and the least-recently-served key trains
	// first. Requires AsyncFineTune; ignored without it.
	TrainerPool *TrainerPool
	TrainerKey  string
	// ScorePool is ignored: ensemble members step in order on the
	// caller. A compat shim; see the list above the ScorePool type.
	ScorePool *ScorePool
	// Seed drives every random component (default 1).
	Seed int64
	// LR overrides the model learning rate (0 = model default).
	LR float64
	// ARIMADiff is the online-ARIMA differencing order d (default 1).
	ARIMADiff int
}

func (c *Config) fillDefaults() error {
	if c.Channels <= 0 {
		return fmt.Errorf("streamad: Channels must be positive, got %d", c.Channels)
	}
	if c.Window == 0 {
		c.Window = 100
	}
	if c.Window < 4 {
		return fmt.Errorf("streamad: Window must be at least 4, got %d", c.Window)
	}
	if c.TrainSize == 0 {
		c.TrainSize = 500
	}
	if c.TrainSize < 2 {
		return fmt.Errorf("streamad: TrainSize must be at least 2, got %d", c.TrainSize)
	}
	if c.WarmupVectors == 0 {
		c.WarmupVectors = c.TrainSize
	}
	if c.ScoreWindow == 0 {
		c.ScoreWindow = c.Window
	}
	if c.ShortWindow == 0 {
		c.ShortWindow = c.ScoreWindow / 10
		if c.ShortWindow < 2 {
			c.ShortWindow = 2
		}
	}
	if c.ShortWindow >= c.ScoreWindow {
		return fmt.Errorf("streamad: ShortWindow (%d) must be smaller than ScoreWindow (%d)",
			c.ShortWindow, c.ScoreWindow)
	}
	if c.Alpha == 0 {
		c.Alpha = drift.DefaultAlpha
	}
	if c.KSCheckEvery == 0 {
		c.KSCheckEvery = 1
	}
	if c.RegularInterval == 0 {
		c.RegularInterval = c.TrainSize
	}
	if c.InitEpochs == 0 {
		// Gradient-trained models need several warmup epochs to reach a
		// useful operating point; fine-tunes stay at one epoch (paper).
		switch c.Model {
		case ModelAE, ModelUSAD, ModelNBEATS:
			c.InitEpochs = 10
		default:
			c.InitEpochs = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ARIMADiff == 0 {
		c.ARIMADiff = 1
	}
	if c.Model == ModelVAR && c.Task1 != TaskSlidingWindow {
		return fmt.Errorf("streamad: VAR requires the sliding-window strategy (got %v)", c.Task1)
	}
	return nil
}

// Compat shims. The frozen benchmark/ compiles against these and nothing
// else in the repo needs them; the next benchmark-lane PR can stop using
// them and delete all four in one go:
//
//   - IsEnsembleSpec and ParseEnsembleSpec (parse.go): ParseSpec plus a
//     type switch on the returned Spec tree answers both.
//   - core.Pager's single PageOut() ([]byte, error): tracedDetector
//     implements exactly this method set, which blocks a page-out that
//     appends into a borrowed buffer (ROADMAP item 9).
//   - Config.ScorePool: set by the benchmark, read by nothing.

// ScorePool re-exports the shared bounded worker pool the ingestion
// layer's stream dispatchers run on. One pool serves any number of
// streams; goroutine count stays O(workers), not O(streams).
type ScorePool = pool.Pool

// TrainerPool re-exports the shared K-slot training pool with
// cross-stream fairness; see Config.TrainerPool.
type TrainerPool = pool.Trainer

// NewScoringPool builds a shared scoring pool; workers <= 0 selects
// GOMAXPROCS. Close it after the registry using it has closed.
func NewScoringPool(workers int) *ScorePool { return pool.NewScoring(workers) }

// NewTrainerPool builds a shared trainer pool with the given number of
// concurrent training slots; slots <= 0 selects 2.
func NewTrainerPool(slots int) *TrainerPool { return pool.NewTrainer(slots) }

// Detector is a fully assembled streaming anomaly detector: the leaf of
// the detector tree. The embedded framework loop supplies Step, Steps,
// FineTunes, FineTuneStats, Close, WarmedUp, DriftOps and
// warm-tier paging (PageOut/PageIn/Paged, which move the window state
// only — the model stays resident); this type adds what the loop does
// not own: the configuration, the Task 1 RNG and the model's place in the
// checkpoint (Save/Load in checkpoint.go, SaveModel/LoadModel here).
type Detector struct {
	*core.Detector
	cfg Config
	// src drives the Task 1 strategies' random draws; counting them makes
	// the RNG position part of the Save/Load checkpoint.
	src *randstate.CountedSource
	// blobSize is the length of the last blob saved or loaded, the next
	// Save's capacity.
	blobSize int
}

// Result re-exports the per-step output of the framework.
type Result = core.Result

// FineTuneStats re-exports the fine-tuning activity snapshot.
type FineTuneStats = core.FineTuneStats

// FineTuneBuckets re-exports the duration histogram bucket bounds
// (seconds) used by FineTuneStats.
var FineTuneBuckets = core.FineTuneBuckets

// New builds a detector for the given configuration.
func New(cfg Config) (*Detector, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	dim := cfg.Window * cfg.Channels

	model, err := buildModel(cfg)
	if err != nil {
		return nil, err
	}

	src := randstate.NewCountedSource(cfg.Seed + 7919)
	rng := rand.New(src)
	var set reservoir.TrainingSet
	switch cfg.Task1 {
	case TaskSlidingWindow:
		set = reservoir.NewSlidingWindow(cfg.TrainSize, dim)
	case TaskUniformReservoir:
		set = reservoir.NewUniformReservoir(cfg.TrainSize, dim, rng)
	case TaskAnomalyReservoir:
		set = reservoir.NewAnomalyAwareReservoir(cfg.TrainSize, dim, rng)
	default:
		return nil, fmt.Errorf("streamad: unknown Task1 %d", cfg.Task1)
	}

	var det drift.Detector
	switch cfg.Task2 {
	case TaskMuSigma:
		det = drift.NewMuSigmaChange(dim)
	case TaskKSWIN:
		k := drift.NewKSWIN(cfg.Channels, cfg.Window, cfg.Alpha)
		k.CheckEvery = cfg.KSCheckEvery
		det = k
	case TaskRegular:
		det = drift.NewRegular(cfg.RegularInterval)
	case TaskADWIN:
		det = drift.NewADWIN(cfg.ADWINDelta)
	default:
		return nil, fmt.Errorf("streamad: unknown Task2 %d", cfg.Task2)
	}

	var scorer score.Scorer
	switch cfg.Score {
	case ScoreAverage:
		scorer = score.NewAverage(cfg.ScoreWindow)
	case ScoreLikelihood:
		scorer = score.NewAnomalyLikelihood(cfg.ScoreWindow, cfg.ShortWindow)
	case ScoreRaw:
		scorer = score.Raw{}
	default:
		return nil, fmt.Errorf("streamad: unknown ScoreKind %d", cfg.Score)
	}

	// Self-scoring models (PCB-iForest's path-length score, kNN's distance
	// score) carry their own nonconformity; everything else uses cosine.
	var measure score.Nonconformity
	if cfg.Model != ModelPCBIForest && cfg.Model != ModelKNN {
		measure = score.Cosine{}
	}

	ccfg := core.Config{
		Representer:   core.NewRepresenter(cfg.Window, cfg.Channels),
		Model:         model,
		TrainingSet:   set,
		Drift:         det,
		Measure:       measure,
		Scorer:        scorer,
		WarmupVectors: cfg.WarmupVectors,
		InitEpochs:    cfg.InitEpochs,
		PreTrained:    cfg.PreTrained,
		Sanitize:      cfg.Sanitize,
		Attribution:   cfg.Attribution,
		AsyncFineTune: cfg.AsyncFineTune,
	}
	if cfg.TrainerPool != nil {
		// Guarded assignment: a nil *TrainerPool must stay a nil
		// interface in core, or the pool branch would dereference it.
		ccfg.TrainerPool = cfg.TrainerPool
		ccfg.TrainerKey = cfg.TrainerKey
	}
	inner, err := core.NewDetector(ccfg)
	if err != nil {
		return nil, err
	}
	return &Detector{Detector: inner, cfg: cfg, src: src}, nil
}

func buildModel(cfg Config) (core.Model, error) {
	switch cfg.Model {
	case ModelARIMA:
		lags := cfg.Window - cfg.ARIMADiff - 1
		if lags < 1 {
			return nil, fmt.Errorf("streamad: Window %d too small for ARIMA with d=%d", cfg.Window, cfg.ARIMADiff)
		}
		return arima.New(arima.Config{
			Lags: lags, D: cfg.ARIMADiff, Channels: cfg.Channels, LR: cfg.LR,
		})
	case ModelPCBIForest:
		return iforest.New(iforest.Config{Channels: cfg.Channels, Seed: cfg.Seed})
	case ModelAE:
		return autoenc.New(autoenc.Config{
			Dim: cfg.Window * cfg.Channels, LR: cfg.LR, Seed: cfg.Seed,
		})
	case ModelUSAD:
		return usad.New(usad.Config{
			Dim: cfg.Window * cfg.Channels, LR: cfg.LR, Seed: cfg.Seed,
		})
	case ModelNBEATS:
		return nbeats.New(nbeats.Config{
			Channels: cfg.Channels, BackcastRows: cfg.Window - 1, LR: cfg.LR, Seed: cfg.Seed,
		})
	case ModelVAR:
		p := cfg.Window / 4
		if p < 1 {
			p = 1
		}
		return varmodel.New(varmodel.Config{P: p, Channels: cfg.Channels})
	case ModelARIMAONS:
		lags := cfg.Window - cfg.ARIMADiff - 1
		if lags < 1 {
			return nil, fmt.Errorf("streamad: Window %d too small for ARIMA with d=%d", cfg.Window, cfg.ARIMADiff)
		}
		base, err := arima.New(arima.Config{
			Lags: lags, D: cfg.ARIMADiff, Channels: cfg.Channels,
		})
		if err != nil {
			return nil, err
		}
		return arima.NewONS(base, cfg.LR, 0), nil
	case ModelKNN:
		return knn.New(knn.Config{Dim: cfg.Window * cfg.Channels})
	default:
		return nil, fmt.Errorf("streamad: unknown ModelKind %d", cfg.Model)
	}
}

// Run scores an entire series with det, returning per-step anomaly scores
// and a validity mask covering the post-warmup region.
func Run(det StreamDetector, series [][]float64) (scores []float64, valid []bool) {
	return core.Run(det, series)
}

// Config returns the (default-filled) configuration the detector runs.
func (d *Detector) Config() Config { return d.cfg }

// SaveModel returns a binary snapshot of the model parameters θ_model
// (weights, coefficients, forests, normalization) currently scoring; an
// asynchronous fine-tune pending adoption is not in it. Window and
// reservoir state are not included: a restored detector refills its
// representation window from the live stream, which takes w steps.
func (d *Detector) SaveModel() ([]byte, error) {
	m, ok := d.Model().(wire.Appender)
	if !ok {
		return nil, fmt.Errorf("streamad: %v does not support model snapshots", d.cfg.Model)
	}
	return m.AppendBinary(nil)
}

// LoadModel restores a snapshot produced by SaveModel into this
// detector's model. The detector must have been built with an identical
// model configuration (kind, Window, Channels).
func (d *Detector) LoadModel(data []byte) error {
	m, ok := d.Model().(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("streamad: %v does not support model snapshots", d.cfg.Model)
	}
	return m.UnmarshalBinary(data)
}

// Combo is one (model, Task 1, Task 2) combination of the Table I grid.
type Combo struct {
	Model ModelKind
	Task1 Task1
	Task2 Task2
}

// String formats the combo the way Table III labels rows.
func (c Combo) String() string {
	return fmt.Sprintf("%s/%s/%s", c.Model, c.Task1, c.Task2)
}

// Combos enumerates the paper's 26 evaluated algorithm combinations
// (Table I): the full Task 1 × Task 2 grid for ARIMA, AE, USAD and
// N-BEATS, and {SW, ARES} × KSWIN for PCB-iForest.
func Combos() []Combo {
	full := []ModelKind{ModelARIMA, ModelAE, ModelUSAD, ModelNBEATS}
	var out []Combo
	for _, m := range full {
		for _, t1 := range []Task1{TaskSlidingWindow, TaskUniformReservoir, TaskAnomalyReservoir} {
			for _, t2 := range []Task2{TaskMuSigma, TaskKSWIN} {
				out = append(out, Combo{Model: m, Task1: t1, Task2: t2})
			}
		}
	}
	for _, t1 := range []Task1{TaskSlidingWindow, TaskAnomalyReservoir} {
		out = append(out, Combo{Model: ModelPCBIForest, Task1: t1, Task2: TaskKSWIN})
	}
	return out
}
