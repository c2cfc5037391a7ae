package streamad

import (
	"fmt"

	"streamad/internal/core"
	"streamad/internal/wire"
)

// snapshotVersion identifies the Detector.Save envelope layout;
// pendingVersion is the same envelope followed by a pending asynchronous
// fine-tune — its due step and trained model. Only a checkpoint taken
// between a trigger and its due step writes it, so every other one keeps
// the plain layout's bytes, and a truncated pending one is refused.
const (
	snapshotVersion = 2
	pendingVersion  = 3
)

// fingerprintFields names, in wire order, the configuration values a
// checkpoint leads with; Load rejects a snapshot whose values differ from
// the receiver's before any state is touched.
var fingerprintFields = [...]string{"model", "task1", "task2", "score", "channels", "window",
	"train size", "warmup", "score window", "short window", "seed", "sanitize"}

func (d *Detector) fingerprint() [len(fingerprintFields)]int64 {
	c := &d.cfg
	var sanitize int64
	if c.Sanitize {
		sanitize = 1
	}
	return [...]int64{int64(c.Model), int64(c.Task1), int64(c.Task2), int64(c.Score),
		int64(c.Channels), int64(c.Window), int64(c.TrainSize), int64(c.WarmupVectors),
		int64(c.ScoreWindow), int64(c.ShortWindow), c.Seed, sanitize}
}

// fingerprintValue renders field i of a fingerprint for error messages,
// naming the four enumerated components.
func fingerprintValue(i int, v int64) interface{} {
	switch i {
	case 0:
		return ModelKind(v)
	case 1:
		return Task1(v)
	case 2:
		return Task2(v)
	case 3:
		return ScoreKind(v)
	}
	return v
}

// Save returns a binary snapshot of the complete detector state: model
// parameters including optimizer position, the representation window, the
// Task 1 training set and its RNG position, the Task 2 drift reference,
// the scorer windows and every counter. A detector restored with Load
// resumes scoring immediately — no window refill, no re-warmup — and
// produces scores identical to an uninterrupted run, even through later
// drift-triggered fine-tunes.
//
// The buffer is presized from the previous snapshot saved or loaded, so
// Save is one allocation, the first one after a restore included.
func (d *Detector) Save() ([]byte, error) { return wire.Marshal(d, &d.blobSize) }

// AppendBinary appends the Save snapshot to dst.
func (d *Detector) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, d) }

// Load restores a snapshot produced by Save into this detector. The
// detector must have been built with the same configuration (combination,
// Channels, Window, TrainSize, warmup and score windows, Seed); a
// mismatch is refused before any state is touched.
func (d *Detector) Load(data []byte) error { return wire.Decode(data, d) }

// Walk implements wire.Walker: the envelope version, the configuration
// fingerprint, the Task 1 RNG position, then the model and the
// framework-loop state as two sections of the same buffer. It shadows the
// embedded loop's Walk, which is the last section alone. A pending
// fine-tune is finished — trained here if its pool has not started it —
// and walked as its due step and a model section; it is still adopted at
// that step, by this detector or a restored one.
func (d *Detector) Walk(w *wire.Walk) {
	model, ok := d.Model().(wire.Walker)
	if !ok {
		w.Fail(fmt.Errorf("streamad: %v does not support model snapshots", d.cfg.Model))
		return
	}
	size := w.Left()
	var due int
	var trained core.Model
	version := snapshotVersion
	if w.Encoding() {
		if due, trained, ok = d.Pending(); ok {
			version = pendingVersion
		}
	}
	if w.Int(&version); w.Decoding() && version != snapshotVersion && version != pendingVersion {
		w.Fail(fmt.Errorf("streamad: snapshot version %d, this build reads %d and %d", version, snapshotVersion, pendingVersion))
	}
	for i, want := range d.fingerprint() {
		got := want
		if w.Int64(&got); w.Decoding() && got != want {
			w.Fail(fmt.Errorf("streamad: snapshot %s %v does not match detector %s %v",
				fingerprintFields[i], fingerprintValue(i, got), fingerprintFields[i], fingerprintValue(i, want)))
		}
	}
	seed, draws := d.src.SeedValue(), d.src.Draws()
	w.Int64(&seed)
	w.Uint64(&draws)
	w.Section(model.Walk)
	w.Section(d.Detector.Walk)
	if version == pendingVersion {
		if w.Decoding() {
			trained = d.pendingModel(w)
		}
		w.Int(&due)
		if t, ok := trained.(wire.Walker); ok {
			w.Section(t.Walk)
		} else {
			w.Fail(fmt.Errorf("streamad: pending %v model does not support snapshots", d.cfg.Model))
		}
	}
	if w.Decoding() {
		d.SetPending(due, trained)
		d.src.Restore(seed, draws)
		d.blobSize = size
	}
}

// pendingModel returns the blank model a checkpoint's pending fine-tune
// decodes into, failing w when this detector cannot fine-tune
// asynchronously.
func (d *Detector) pendingModel(w *wire.Walk) core.Model {
	if !trainsAsync(d.cfg.Model) {
		w.Fail(fmt.Errorf("streamad: %v cannot fine-tune asynchronously, but the snapshot holds a pending fine-tune", d.cfg.Model))
		return nil
	}
	m, err := buildModel(d.cfg)
	if err != nil {
		w.Fail(err)
	}
	return m
}
