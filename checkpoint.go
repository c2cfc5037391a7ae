package streamad

import (
	"encoding"
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
// the scorer windows and every counter. Unlike SaveModel, a detector
// restored with Load resumes scoring immediately — no window refill, no
// re-warmup — and produces scores identical to an uninterrupted run, even
// through later drift-triggered fine-tunes.
//
// The buffer is presized from the previous snapshot saved or loaded, so
// Save is one allocation, the first one after a restore included.
func (d *Detector) Save() ([]byte, error) { return wire.Marshal(d, &d.blobSize) }

// AppendBinary appends the Save snapshot to dst: the envelope version,
// the configuration fingerprint, the Task 1 RNG position, then the model
// and the framework-loop state as two sections of the same buffer. It
// shadows the embedded loop's AppendBinary, which writes the last section
// alone. A pending fine-tune is finished — trained here if its pool has
// not started it — and appended as its due step and a model section; it
// is still adopted at that step, by this detector or a restored one.
func (d *Detector) AppendBinary(dst []byte) ([]byte, error) {
	model, ok := d.Model().(wire.Appender)
	if !ok {
		return nil, fmt.Errorf("streamad: %v does not support model snapshots", d.cfg.Model)
	}
	due, trained, pending := d.Pending()
	version := snapshotVersion
	if pending {
		version = pendingVersion
	}
	dst = wire.AppendInt(dst, version)
	for _, v := range d.fingerprint() {
		dst = wire.AppendInt64(dst, v)
	}
	dst = wire.AppendInt64(dst, d.src.SeedValue())
	dst = wire.AppendUint64(dst, d.src.Draws())
	dst, err := wire.AppendSection(dst, model)
	if err != nil {
		return nil, err
	}
	if dst, err = wire.AppendSection(dst, d.Detector); err != nil || !pending {
		return dst, err
	}
	return wire.AppendSection(wire.AppendInt(dst, due), trained.(wire.Appender))
}

// Load restores a snapshot produced by Save into this detector. The
// detector must have been built with the same configuration (combination,
// Channels, Window, TrainSize, warmup and score windows, Seed); a
// mismatch is rejected before any state is touched.
func (d *Detector) Load(data []byte) error {
	rd := wire.NewReader(data)
	v := rd.Int()
	if rd.Err() != nil || v != snapshotVersion && v != pendingVersion {
		return fmt.Errorf("streamad: snapshot version %d, this build reads %d and %d", v, snapshotVersion, pendingVersion)
	}
	var snap [len(fingerprintFields)]int64
	for i := range snap {
		snap[i] = rd.Int64()
	}
	rngSeed, rngDraws := rd.Int64(), rd.Uint64()
	model, inner := rd.Section(), rd.Section()
	var due int
	var trained []byte
	if v == pendingVersion {
		due, trained = rd.Int(), rd.Section()
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("streamad: decode snapshot: %w", err)
	}
	for i, want := range d.fingerprint() {
		if snap[i] != want {
			return fmt.Errorf("streamad: snapshot %s %v does not match detector %s %v",
				fingerprintFields[i], fingerprintValue(i, snap[i]), fingerprintFields[i], fingerprintValue(i, want))
		}
	}
	// Decode the models first: their Unmarshal validates shapes against
	// the receiver, so a corrupt or cross-model blob fails before the
	// framework loop state is touched.
	var pending core.Model
	if v == pendingVersion {
		c, ok := d.Model().(core.Cloner)
		if !ok {
			return fmt.Errorf("streamad: %v cannot fine-tune asynchronously, but the snapshot holds a pending fine-tune", d.cfg.Model)
		}
		pending = c.CloneModel().(core.Model)
		if err := pending.(encoding.BinaryUnmarshaler).UnmarshalBinary(trained); err != nil {
			return err
		}
	}
	if err := d.LoadModel(model); err != nil {
		return err
	}
	if err := d.PageIn(inner); err != nil {
		return err
	}
	d.SetPending(due, pending)
	d.src.Restore(rngSeed, rngDraws)
	d.blobSize = len(data)
	return nil
}
