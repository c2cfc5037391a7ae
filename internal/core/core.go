// Package core implements the extended SAFARI framework of the paper: the
// four fundamental components of a streaming anomaly detection algorithm —
// data representation (Definition III.1), learning strategy (III.2, split
// into Task 1 training-set maintenance and Task 2 drift-triggered
// fine-tuning), nonconformity measure (III.3) and anomaly scoring (III.4) —
// wired into a single streaming Detector.
//
// The reference parameters θ_t = {θ_model, R_train,t} generalize SAFARI's
// reference group: the Task 1 strategy maintains R_train, the Task 2
// detector watches it for concept drift, and a drift triggers one
// fine-tuning epoch of the model on the current training set.
package core

import (
	"errors"
	"fmt"
	"math"

	"streamad/internal/drift"
	"streamad/internal/reservoir"
	"streamad/internal/score"
	"streamad/internal/window"
)

// Model is a machine-learning model pluggable into the framework. Every
// model must also implement either Predictor or SelfScoring so the
// framework can derive nonconformity scores from it.
type Model interface {
	// Fit runs one fine-tuning epoch over the training set, the update
	// θ_model,t = θ_model,t−1 − grads of the paper.
	Fit(set [][]float64)
}

// Predictor models return the (target, prediction) pair that the
// nonconformity measure compares: reconstruction models return (x, x̂);
// forecasting models return (s_t, ŝ_t).
type Predictor interface {
	Predict(x []float64) (target, pred []float64)
}

// SelfScoring models produce their nonconformity score directly instead of
// a prediction pair; PCB-iForest is the paper's instance.
type SelfScoring interface {
	NonconformityScore(x []float64) float64
}

// Representer is the data representation D: it turns the last w stream
// vectors into the feature vector x_t ∈ R^{w×N} (Definition III.1).
type Representer struct {
	win      *window.VecRing
	channels int
	rows     int
	flat     []float64
	// primed marks flat as an up-to-date mirror of the ring, enabling the
	// incremental shift-one-row update instead of a full w-row rebuild.
	primed bool
}

// NewRepresenter returns a representation of rows stream vectors of N
// channels each.
func NewRepresenter(rows, channels int) *Representer {
	return &Representer{
		win:      window.NewVecRing(rows, channels),
		channels: channels,
		rows:     rows,
		flat:     make([]float64, rows*channels),
	}
}

// Push adds stream vector s and returns the current feature vector
// (row-major, oldest row first) once w vectors have accumulated. The
// returned slice is reused across calls; copy it to retain.
func (r *Representer) Push(s []float64) (x []float64, ok bool) {
	r.win.Push(s)
	if !r.win.Full() {
		return nil, false
	}
	if r.primed {
		// flat already mirrored the previous window: one memmove drops the
		// oldest row, then only the new row is copied in.
		n := r.channels
		copy(r.flat, r.flat[n:])
		copy(r.flat[(r.rows-1)*n:], s)
		return r.flat, true
	}
	for i := 0; i < r.rows; i++ {
		copy(r.flat[i*r.channels:(i+1)*r.channels], r.win.At(i))
	}
	r.primed = true
	return r.flat, true
}

// Dim returns the flattened feature-vector length w·N.
func (r *Representer) Dim() int { return r.rows * r.channels }

// Rows returns w.
func (r *Representer) Rows() int { return r.rows }

// Channels returns N.
func (r *Representer) Channels() int { return r.channels }

// Config assembles a Detector from the four framework components.
type Config struct {
	// Representer is the data representation D (required).
	Representer *Representer
	// Model is the ML model (required).
	Model Model
	// TrainingSet is the Task 1 strategy maintaining R_train (required).
	TrainingSet reservoir.TrainingSet
	// Drift is the Task 2 strategy deciding when to fine-tune (required).
	Drift drift.Detector
	// Measure is the nonconformity measure A. It may be nil only when the
	// model is SelfScoring.
	Measure score.Nonconformity
	// Scorer is the anomaly scoring function F (required).
	Scorer score.Scorer
	// WarmupVectors is the number of feature vectors collected before the
	// initial training; the paper uses the first 5000 time steps.
	WarmupVectors int
	// InitEpochs is the number of epochs of the initial fit (default 1).
	InitEpochs int
	// PreTrained skips the initial fit at the end of warmup: the warmup
	// still fills the training set and initializes the drift reference,
	// but the model parameters — e.g. restored from a snapshot — are left
	// untouched until the first drift-triggered fine-tune.
	PreTrained bool
	// Sanitize replaces NaN/±Inf stream values with the channel's last
	// finite value (or 0 before one exists) instead of letting them poison
	// every running statistic. Real telemetry has gaps; with Sanitize off,
	// a single NaN propagates into the training set, the drift statistics
	// and the model weights.
	Sanitize bool
	// Attribution computes, for predictor models, the per-channel share
	// of the prediction error at every step (Result.Attribution), so an
	// alert can name the channels that drove it. Self-scoring models
	// (PCB-iForest, kNN) have no prediction pair to decompose.
	Attribution bool
	// AsyncFineTune enables the serve/train split: a drift trigger at
	// step s clones the model and copies R_train, a TrainerPool trains the
	// clone while scoring continues on the old parameters, and the Step
	// of s+adoptLag adopts it, waiting if need be. Requires a Cloner
	// model; otherwise fine-tuning stays synchronous (the default): the
	// live model trains in place within the triggering Step.
	AsyncFineTune bool
	// TrainerPool, with AsyncFineTune, runs the fine-tunes on a shared
	// bounded pool instead of a goroutine each.
	TrainerPool TrainerPool
	// TrainerKey identifies this detector's stream in the trainer pool's
	// cross-stream fairness ordering. Only meaningful with TrainerPool.
	TrainerKey string
}

// Result is the per-time-step output of the Detector.
type Result struct {
	// Nonconformity is the raw a_t.
	Nonconformity float64
	// Score is the final anomaly score f_t.
	Score float64
	// FineTuned reports whether this step triggered a fine-tune.
	FineTuned bool
	// Attribution, when Config.Attribution is on and the model is a
	// Predictor, holds each channel's share of the squared prediction
	// error (length N, sums to 1). The slice is reused across steps; copy
	// it to retain.
	Attribution []float64
	// Source names the member or tier that produced this result, for
	// detectors composed of several ("tier0:zscore", "heavy:knn+sw+…").
	// Empty for single-pipeline detectors and ensembles, whose score has
	// exactly one provenance.
	Source string
}

// Detector runs the streaming anomaly detection loop. Step, Close and
// the state snapshot methods must all be called from a single goroutine;
// FineTuneStats is safe from any goroutine. Together with its model's
// checkpoint (streamad.Detector adds it) it is the leaf Node.
type Detector struct {
	cfg        Config
	predictor  Predictor   // view of cfg.Model, set by NewDetector and adopt
	selfScore  SelfScoring // view of cfg.Model, set by NewDetector and adopt
	warmupLeft int
	warmedUp   bool
	steps      int
	fineTunes  int
	lastGood   []float64 // per-channel last finite value (Sanitize)
	sanBuf     []float64 // per-step repair scratch, preallocated by NewDetector and overwritten each Step
	sanitized  int       // steps on which a non-finite input was repaired
	attrBuf    []float64 // per-step attribution scratch, preallocated by NewDetector and derived each Step
	paged      bool      // window state released to the snapshot store (warm tier)
	blobSize   int       // length of the last window-state blob marshalled or restored, the next one's capacity
	train      *trainer  // fine-tune configuration and metrics, plus a pending job the leaf envelope checkpoints via Pending/SetPending
}

// ErrConfig reports an invalid Detector configuration.
var ErrConfig = errors.New("core: invalid configuration")

// NewDetector validates the configuration and returns a Detector.
func NewDetector(cfg Config) (*Detector, error) {
	if cfg.Representer == nil || cfg.Model == nil || cfg.TrainingSet == nil ||
		cfg.Drift == nil || cfg.Scorer == nil {
		return nil, fmt.Errorf("%w: missing component", ErrConfig)
	}
	pred, isPred := cfg.Model.(Predictor)
	ss, isSelf := cfg.Model.(SelfScoring)
	if !isPred && !isSelf {
		return nil, fmt.Errorf("%w: model implements neither Predictor nor SelfScoring", ErrConfig)
	}
	if cfg.Measure == nil && !isSelf {
		return nil, fmt.Errorf("%w: nonconformity measure required for non-self-scoring model", ErrConfig)
	}
	if cfg.Measure != nil && !isPred {
		return nil, fmt.Errorf("%w: nonconformity measure set but model does not implement Predictor", ErrConfig)
	}
	if cfg.WarmupVectors < 0 {
		return nil, fmt.Errorf("%w: negative warmup", ErrConfig)
	}
	if cfg.InitEpochs == 0 {
		cfg.InitEpochs = 1
	}
	d := &Detector{cfg: cfg, warmupLeft: cfg.WarmupVectors, train: newTrainer(cfg)}
	if isSelf && cfg.Measure == nil {
		d.selfScore = ss
	} else {
		d.predictor = pred
	}
	// Scoring-path scratch is allocated here, never lazily: the very
	// first post-warmup Step must already run allocation-free.
	if cfg.Sanitize {
		n := cfg.Representer.Channels()
		d.lastGood = make([]float64, n)
		d.sanBuf = make([]float64, n)
	}
	if cfg.Attribution {
		d.attrBuf = make([]float64, cfg.Representer.Channels())
	}
	return d, nil
}

// sanitize replaces non-finite values with the channel's last finite
// value, returning a buffer owned by the detector. Its buffers are
// allocated by NewDetector (and restored by Load), so the scoring path
// never touches the heap here.
func (d *Detector) sanitize(s []float64) []float64 {
	// One fused scan repairs into sanBuf while refreshing lastGood; the
	// clean (overwhelmingly common) case still returns s untouched.
	dirty := false
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			dirty = true
			d.sanBuf[i] = d.lastGood[i]
		} else {
			d.sanBuf[i] = v
			d.lastGood[i] = v
		}
	}
	if !dirty {
		return s
	}
	d.sanitized++
	return d.sanBuf
}

// Step consumes the next stream vector s_t. ok is false while the detector
// is still filling its representation window or warming up; once true, the
// Result carries the nonconformity and anomaly scores for this step.
func (d *Detector) Step(s []float64) (Result, bool) {
	if d.paged {
		panic("core: Step on paged-out detector; PageIn first")
	}
	d.steps++
	if d.cfg.Sanitize {
		s = d.sanitize(s)
	}
	x, ready := d.cfg.Representer.Push(s)
	if !ready {
		return Result{}, false
	}
	if !d.warmedUp {
		d.cfg.TrainingSet.Observe(x, 0)
		if d.warmupLeft > 0 {
			d.warmupLeft--
		}
		if d.warmupLeft == 0 {
			if !d.cfg.PreTrained {
				items := d.cfg.TrainingSet.Items()
				for e := 0; e < d.cfg.InitEpochs; e++ {
					d.cfg.Model.Fit(items)
				}
			}
			d.cfg.Drift.Reset(d.cfg.TrainingSet)
			d.warmedUp = true
		}
		return Result{}, false
	}

	var a float64
	var attribution []float64
	if d.selfScore != nil {
		a = d.selfScore.NonconformityScore(x)
	} else {
		target, pred := d.predictor.Predict(x)
		a = d.cfg.Measure.Measure(target, pred)
		if d.cfg.Attribution {
			attribution = d.attribute(target, pred)
		}
	}
	f := d.cfg.Scorer.Score(a)

	update := d.cfg.TrainingSet.Observe(x, f)
	fineTuned := false
	if d.cfg.Drift.Observe(update, x, d.cfg.TrainingSet) {
		// A fine-tune launch allocates (model clone, goroutine or pool
		// submit), but only on a drift trigger, amortized over thousands of
		// steps.
		fineTuned = d.fineTune()
	}
	if j := d.train.job; j != nil && j.due <= d.steps {
		d.adopt()
	}
	return Result{Nonconformity: a, Score: f, FineTuned: fineTuned, Attribution: attribution}, true
}

// attribute computes each channel's share of the squared prediction
// error. Targets may be one stream row (forecasters: length N) or a whole
// feature vector (reconstruction models: length w·N, row-major); both lay
// channels out as index mod N.
func (d *Detector) attribute(target, pred []float64) []float64 {
	n := d.cfg.Representer.Channels()
	for i := range d.attrBuf {
		d.attrBuf[i] = 0
	}
	var total float64
	for i := range target {
		diff := target[i] - pred[i]
		e := diff * diff
		d.attrBuf[i%n] += e
		total += e
	}
	if total > 0 {
		for i := range d.attrBuf {
			d.attrBuf[i] /= total
		}
	} else {
		// Perfect prediction: attribute uniformly.
		for i := range d.attrBuf {
			d.attrBuf[i] = 1 / float64(n)
		}
	}
	return d.attrBuf
}

// Steps returns the number of stream vectors consumed.
func (d *Detector) Steps() int { return d.steps }

// Model returns the model currently serving scores. With asynchronous
// fine-tuning the model identity changes at adoption steps, so callers
// snapshotting parameters must use this accessor rather than a reference
// captured at build time; a fine-tune pending adoption is not in it.
func (d *Detector) Model() Model { return d.cfg.Model }

// FineTunes returns the number of fine-tuning sessions performed after
// warmup. It counts adopted models, so an asynchronous fine-tune pending
// adoption is not included; see FineTuneStats for launch/completion
// counts.
func (d *Detector) FineTunes() int { return d.fineTunes }

// WarmedUp reports whether the initial training has completed.
func (d *Detector) WarmedUp() bool { return d.warmedUp }

// DriftOps exposes the Task 2 detector's cumulative operation counts.
func (d *Detector) DriftOps() drift.OpCounts { return d.cfg.Drift.Ops() }

// Children implements Node: a pipeline is a leaf.
func (d *Detector) Children() []Node { return nil }
