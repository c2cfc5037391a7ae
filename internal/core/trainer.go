package core

import (
	"sync"
	"sync/atomic"
	"time"

	"streamad/internal/stats"
)

// Cloner is the optional model capability behind asynchronous
// fine-tuning: CloneModel returns a full-fidelity deep copy — weights,
// optimizer state, scalers — that can train on a background goroutine
// while the original keeps scoring. The returned value must implement
// Model (and whichever of Predictor/SelfScoring the original does).
type Cloner interface {
	CloneModel() any
}

// TrainerPool is the shared bounded fine-tune pool the detector can route
// asynchronous training through instead of spawning per-fine-tune
// goroutines (implemented by internal/pool.Trainer). Submit queues one
// job for the stream key; the returned cancel reports true when it won
// the race against dequeue, in which case the job will never run and the
// caller owns its cleanup.
type TrainerPool interface {
	Submit(key string, run func()) (cancel func() bool)
}

// FineTuneBuckets are the upper bounds (seconds) of the fine-tune
// duration histogram in FineTuneStats; an implicit +Inf bucket follows.
var FineTuneBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// FineTuneStats is a point-in-time snapshot of the detector's
// fine-tuning activity, safe to call from any goroutine.
type FineTuneStats struct {
	// Async reports whether the serve/train split is active (the config
	// asked for it and the model supports cloning).
	Async bool
	// InFlight reports whether a background fine-tune is running now.
	InFlight bool
	// Launched counts asynchronous fine-tunes started.
	Launched int64
	// Skipped counts drift triggers dropped because a fine-tune was
	// already in flight.
	Skipped int64
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

// trainedModel wraps a freshly fine-tuned model for atomic hand-off from
// the trainer goroutine to the scoring loop.
type trainedModel struct {
	model Model
}

// trainer holds the serve/train split state: the in-flight flag, the
// pending trained model awaiting adoption, and the duration metrics.
// All fields are atomics (or only touched by the Step goroutine) so the
// background fine-tune never contends with scoring.
type trainer struct {
	inFlight  atomic.Int32
	pending   atomic.Pointer[trainedModel]
	wg        sync.WaitGroup
	cancel    func() bool // pending pool job's cancel; scoring-goroutine only
	launched  atomic.Int64
	skipped   atomic.Int64
	lastNanos atomic.Int64
	durations *stats.Histogram // one observation (ns) per finished epoch
}

func newTrainer() *trainer {
	return &trainer{durations: stats.NewHistogram(FineTuneBuckets, 1e9)}
}

// record accumulates one fine-tune duration into the metrics.
func (t *trainer) record(d time.Duration) {
	t.lastNanos.Store(int64(d))
	t.durations.Observe(int64(d))
}

// fineTune handles a drift trigger. In synchronous mode (the default) it
// runs the fine-tuning epoch inline, exactly as before. In asynchronous
// mode it clones the model, snapshots R_train and trains on a background
// goroutine, publishing the result for adoption at a later Step; scoring
// continues on the old parameters meanwhile. A trigger that lands while a
// fine-tune is already in flight is counted and dropped. Returns whether
// a fine-tune was started (sync: also finished).
//
//streamad:lifecycle — the async trainer goroutine is joined by WaitFineTune/adoption.
func (d *Detector) fineTune() bool {
	if !d.asyncFT {
		start := time.Now()
		d.cfg.Model.Fit(d.cfg.TrainingSet.Items())
		d.train.record(time.Since(start))
		d.cfg.Drift.Reset(d.cfg.TrainingSet)
		d.fineTunes++
		return true
	}
	if !d.train.inFlight.CompareAndSwap(0, 1) {
		d.train.skipped.Add(1)
		d.cfg.Drift.Reset(d.cfg.TrainingSet)
		return false
	}
	if d.poolFT {
		// Pool mode: enqueue a job that clones the model and snapshots the
		// training set lazily when a slot dequeues it, so however long the
		// job queues it pins no deep copies. Step excludes that snapshot
		// phase via trainMu (already held here — Step calls fineTune).
		d.cfg.Drift.Reset(d.cfg.TrainingSet)
		d.train.launched.Add(1)
		d.train.wg.Add(1)
		d.train.cancel = d.cfg.TrainerPool.Submit(d.cfg.TrainerKey, d.poolFineTune)
		return true
	}
	clone := d.cfg.Model.(Cloner).CloneModel().(Model)
	set := snapshotSet(d.cfg.TrainingSet.Items())
	d.cfg.Drift.Reset(d.cfg.TrainingSet)
	d.train.launched.Add(1)
	d.train.wg.Add(1)
	go func() {
		defer d.train.wg.Done()
		start := time.Now()
		clone.Fit(set)
		d.train.record(time.Since(start))
		// Publish before clearing inFlight so a new launch can only start
		// once its predecessor's result is visible for adoption.
		d.train.pending.Store(&trainedModel{model: clone})
		d.train.inFlight.Store(0)
	}()
	return true
}

// poolFineTune is the body of a trainer-pool job: clone and snapshot
// under trainMu (excluding Step for just that phase), then train outside
// the lock and publish for adoption, exactly like the goroutine path.
// Runs on a pool slot, or inline on the scoring goroutine when a drain
// wins the cancel race.
func (d *Detector) poolFineTune() {
	defer d.train.wg.Done()
	d.trainMu.Lock()
	clone := d.cfg.Model.(Cloner).CloneModel().(Model)
	set := snapshotSet(d.cfg.TrainingSet.Items())
	d.trainMu.Unlock()
	start := time.Now()
	clone.Fit(set)
	d.train.record(time.Since(start))
	// Publish before clearing inFlight so a new launch can only start
	// once its predecessor's result is visible for adoption.
	d.train.pending.Store(&trainedModel{model: clone})
	d.train.inFlight.Store(0)
}

// drainPool settles the detector's pending trainer-pool job: if it is
// still queued the cancel wins and the job either runs inline (train) or
// is discarded (a dropped fine-tune, e.g. at eviction); if a slot already
// claimed it, the wait joins it. Must run on the scoring goroutine with
// trainMu NOT held.
func (d *Detector) drainPool(train bool) {
	c := d.train.cancel
	d.train.cancel = nil
	if c != nil && c() {
		if train {
			d.poolFineTune()
		} else {
			d.train.wg.Done()
			d.train.inFlight.Store(0)
		}
	}
	d.train.wg.Wait()
}

// adoptTrained swaps in a background-trained model if one is pending.
// Called at Step entry on the scoring goroutine, so model installation
// never races with Predict.
func (d *Detector) adoptTrained() {
	p := d.train.pending.Swap(nil)
	if p == nil {
		return
	}
	d.installModel(p.model)
	d.fineTunes++
}

// installModel rewires the detector's cached model interfaces.
func (d *Detector) installModel(m Model) {
	d.cfg.Model = m
	if d.selfScore != nil {
		d.selfScore = m.(SelfScoring)
	} else {
		d.predictor = m.(Predictor)
	}
}

// WaitFineTune blocks until any in-flight asynchronous fine-tune has
// finished, then adopts its model immediately. It must be called from the
// same goroutine that calls Step (the detector's single-writer
// discipline); after it returns, the detector scores with the newest
// parameters — checkpointing and the async-vs-sync equivalence tests use
// it to drain the trainer. A no-op in synchronous mode.
func (d *Detector) WaitFineTune() {
	if !d.asyncFT {
		return
	}
	if d.poolFT {
		d.drainPool(true)
	} else {
		d.train.wg.Wait()
	}
	d.adoptTrained()
}

// Close settles any outstanding asynchronous training without adopting
// its result: a queued pool fine-tune is canceled (its model would be
// discarded anyway), an in-flight one is joined. After Close the detector
// holds no pool or goroutine references; eviction paths must call it so a
// TTL-evicted stream cannot leak an in-flight trainer. Safe to call more
// than once; the detector remains usable (a later Step may trigger new
// fine-tunes).
func (d *Detector) Close() {
	if !d.asyncFT {
		return
	}
	if d.poolFT {
		d.drainPool(false)
	} else {
		d.train.wg.Wait()
	}
}

// FineTuneStats returns a snapshot of fine-tuning activity. Unlike most
// Detector methods it is safe to call from any goroutine.
func (d *Detector) FineTuneStats() FineTuneStats {
	h := d.train.durations.Snapshot()
	return FineTuneStats{
		Async:        d.asyncFT,
		InFlight:     d.train.inFlight.Load() != 0,
		Launched:     d.train.launched.Load(),
		Skipped:      d.train.skipped.Load(),
		Completed:    int64(h.Count()),
		LastSeconds:  float64(d.train.lastNanos.Load()) / 1e9,
		TotalSeconds: float64(h.Sum) / 1e9,
		Buckets:      h.Buckets,
	}
}

// snapshotSet deep-copies the training set for the background trainer:
// reservoir implementations reuse row storage in place, so the trainer
// cannot read the live rows while the stream keeps observing.
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
