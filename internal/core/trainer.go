package core

import (
	"sync/atomic"
	"time"

	"streamad/internal/stats"
	"streamad/internal/wire"
)

// adoptLag is how many steps after its drift trigger an asynchronous
// fine-tune is adopted: a trigger at step s trains a copy of the model on
// R_train as of s, and the Step of s+adoptLag installs it however long
// training took, so async scores are a function of the input alone. Sync
// mode is lag 0. 32 is from the {0, 8, 32, 128} grid it is to be
// measured over.
const adoptLag = 32

// TrainerPool runs asynchronous fine-tunes off the scoring goroutine
// (internal/pool.Pool is the shared bounded one). Submit hands over one
// job with the zeroed claim word the job owns; Cancel reports true when
// it won the race against the job's start, and the caller then runs the
// job.
type TrainerPool interface {
	Submit(run func(), claim *atomic.Int32)
	Cancel(claim *atomic.Int32) bool
}

// goTrainer is the TrainerPool of an async detector configured without
// one: a goroutine per job, never canceled.
type goTrainer struct{}

// Submit implements TrainerPool.
//
//streamad:lifecycle — the goroutine is joined by the detector: at the job's due step, by a checkpoint, or by Close.
func (goTrainer) Submit(run func(), _ *atomic.Int32) { go run() }

// Cancel implements TrainerPool.
func (goTrainer) Cancel(*atomic.Int32) bool { return false }

// FineTuneBuckets are the upper bounds (seconds) of the fine-tune
// duration histogram in FineTuneStats; an implicit +Inf bucket follows.
var FineTuneBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// FineTuneStats is a point-in-time snapshot of the detector's
// fine-tuning activity, safe to call from any goroutine.
type FineTuneStats struct {
	// Async reports whether the serve/train split is active (the config
	// asked for it and the model kind trains asynchronously).
	Async bool
	// InFlight reports whether an asynchronous fine-tune is pending: its
	// trigger has passed and its due step has not.
	InFlight bool
	// Launched counts asynchronous fine-tunes started.
	Launched int64
	// Skipped counts drift triggers dropped because a fine-tune was
	// pending.
	Skipped int64
	// AdoptWaits counts due steps that found their fine-tune unfinished
	// and trained it (still queued) or waited for it (still training).
	AdoptWaits int64
	// Completed counts finished fine-tuning epochs, sync and async.
	Completed int64
	// LastSeconds and TotalSeconds are the duration of the most recent
	// fine-tune and the sum over all of them.
	LastSeconds  float64
	TotalSeconds float64
	// Buckets is the duration histogram: Buckets[i] counts fine-tunes
	// that took ≤ FineTuneBuckets[i] seconds (non-cumulative), with the
	// final element counting everything slower than the last bound.
	Buckets []uint64
}

// job is one fine-tune: a model, the set to fit it on, and the step
// that adopts it. A sync job is the live model and R_train, trained in
// place by its trigger's Step; an async one owns copies and runs on a
// TrainerPool.
type job struct {
	due   int
	model Model
	set   [][]float64   // nil once trained
	claim atomic.Int32  // the pool's claim word for the job
	done  chan struct{} // closed when the pool has trained it; nil once the pool has let go
}

// trainer is the detector's fine-tune state. The job is the scoring
// goroutine's; everything FineTuneStats reads is atomic.
type trainer struct {
	lag       int         // adoptLag in async mode, 0 in sync mode
	pool      TrainerPool // nil in sync mode
	blobSize  int         // length of the last model checkpoint copied, the next one's capacity
	job       *job        // the pending fine-tune, if any
	inFlight  atomic.Bool
	launched  atomic.Int64
	skipped   atomic.Int64
	waits     atomic.Int64
	lastNanos atomic.Int64
	durations *stats.Histogram // one observation (ns) per finished epoch
}

// newTrainer is async when cfg sets NewModel.
func newTrainer(cfg Config) *trainer {
	t := &trainer{durations: stats.NewHistogram(FineTuneBuckets, 1e9)}
	if cfg.NewModel != nil {
		t.lag, t.pool = adoptLag, cfg.TrainerPool
		if t.pool == nil {
			t.pool = goTrainer{}
		}
	}
	return t
}

// fit trains j's model on j's set and records the duration, on the pool
// or on the scoring goroutine.
func (t *trainer) fit(j *job) {
	start := time.Now()
	j.model.Fit(j.set)
	j.set = nil
	d := time.Since(start)
	t.lastNanos.Store(int64(d))
	t.durations.Observe(int64(d))
}

// release takes j back from its pool: a job not started yet is canceled,
// keeping its set for the scoring goroutine to train, and one in training
// is joined. It reports whether the job was not trained by then.
func (t *trainer) release(j *job) (blocked bool) {
	done := j.done
	if done == nil {
		return false
	}
	j.done = nil
	if t.pool.Cancel(&j.claim) {
		return true
	}
	select {
	case <-done:
		return false
	default:
		<-done
		return true
	}
}

// finish makes sure j is trained, training it here if the pool has not,
// and reports whether that took a wait or a training.
func (t *trainer) finish(j *job) bool {
	blocked := t.release(j)
	if j.set != nil {
		t.fit(j)
	}
	return blocked
}

// fineTune handles a drift trigger: it starts a job due lag steps from
// now or, while one is pending, counts the trigger as skipped; either way
// the drift detector restarts from the current training set. A sync job
// (lag 0) trains the live model in place before that; an async one owns
// a copy of the model and of R_train taken now. A model that cannot be
// copied takes the sync path. Reports whether a fine-tune was started.
func (d *Detector) fineTune() bool {
	t := d.train
	if t.job != nil {
		t.skipped.Add(1)
		d.cfg.Drift.Reset(d.cfg.TrainingSet)
		return false
	}
	j := &job{due: d.steps, model: d.cfg.Model, set: d.cfg.TrainingSet.Items()}
	t.job = j
	if copied := d.copyModel(); copied != nil {
		j.due, j.model = d.steps+t.lag, copied
		j.set = snapshotSet(j.set)
		done := make(chan struct{})
		j.done = done
		t.inFlight.Store(true)
		t.launched.Add(1)
		t.pool.Submit(func() {
			t.fit(j)
			close(done)
		}, &j.claim)
	}
	if j.due == d.steps {
		d.adopt()
	}
	d.cfg.Drift.Reset(d.cfg.TrainingSet)
	return true
}

// copyModel returns a blank model from NewModel loaded with the live
// model's checkpoint, or nil in sync mode and when NewModel or the
// decode fails. The checkpoint is the model's only definition of its
// state, so the copy trains exactly as the live model would have.
func (d *Detector) copyModel() Model {
	live, ok := d.cfg.Model.(wire.Walker)
	if d.cfg.NewModel == nil || !ok {
		return nil
	}
	m, err := d.cfg.NewModel()
	if err != nil {
		return nil
	}
	blank, ok := m.(wire.Walker)
	if !ok {
		return nil
	}
	blob, err := wire.Marshal(live, &d.train.blobSize)
	if err != nil || wire.Decode(blob, blank) != nil {
		return nil
	}
	return m
}

// adopt installs the pending job's model at its due step, counting an
// adopt wait if the job was not trained by then.
func (d *Detector) adopt() {
	t, j := d.train, d.train.job
	if t.finish(j) {
		t.waits.Add(1)
	}
	t.job = nil
	t.inFlight.Store(false)
	d.cfg.Model = j.model
	if d.selfScore != nil {
		d.selfScore = j.model.(SelfScoring)
	} else {
		d.predictor = j.model.(Predictor)
	}
	d.fineTunes++
}

// Pending finishes the pending fine-tune, if any, and returns its due
// step and trained model for a checkpoint to carry; between Steps there
// is never one in sync mode.
func (d *Detector) Pending() (due int, model Model, ok bool) {
	j := d.train.job
	if j == nil {
		return 0, nil, false
	}
	d.train.finish(j)
	return j.due, j.model, true
}

// SetPending replaces the pending fine-tune with a trained model that the
// Step of due adopts, as restored from a checkpoint; nil leaves none.
func (d *Detector) SetPending(due int, model Model) {
	d.Close()
	d.train.job = nil
	if model != nil {
		d.train.job = &job{due: due, model: model}
	}
	d.train.inFlight.Store(model != nil)
}

// Close releases the pending fine-tune from its pool, so a dropped
// detector leaves no pool job or goroutine behind. Adoption is untouched:
// a job taken back is trained by its due Step. Safe to call repeatedly.
func (d *Detector) Close() {
	if j := d.train.job; j != nil {
		d.train.release(j)
	}
}

// FineTuneStats returns a snapshot of fine-tuning activity. Unlike most
// Detector methods it is safe to call from any goroutine.
func (d *Detector) FineTuneStats() FineTuneStats {
	t := d.train
	h := t.durations.Snapshot()
	return FineTuneStats{
		Async:        t.pool != nil,
		InFlight:     t.inFlight.Load(),
		Launched:     t.launched.Load(),
		Skipped:      t.skipped.Load(),
		AdoptWaits:   t.waits.Load(),
		Completed:    int64(h.Count()),
		LastSeconds:  float64(t.lastNanos.Load()) / 1e9,
		TotalSeconds: float64(h.Sum) / 1e9,
		Buckets:      h.Buckets,
	}
}

// snapshotSet deep-copies the training set for an async job: reservoir
// implementations reuse row storage in place, so the pool cannot read
// the live rows while the stream keeps observing.
func snapshotSet(items [][]float64) [][]float64 {
	total := 0
	for _, it := range items {
		total += len(it)
	}
	backing := make([]float64, 0, total)
	out := make([][]float64, len(items))
	for i, it := range items {
		backing = append(backing, it...)
		out[i] = backing[len(backing)-len(it):]
	}
	return out
}
