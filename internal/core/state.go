package core

import (
	"encoding"
	"fmt"

	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender for the representer: the snapshot
// is the underlying vector ring (the last w stream vectors).
func (r *Representer) AppendBinary(dst []byte) ([]byte, error) { return r.win.AppendBinary(dst) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the
// representer; the receiver's geometry must match the snapshot. The flat
// mirror is invalidated so the next Push rebuilds it from the ring.
func (r *Representer) UnmarshalBinary(data []byte) error {
	r.primed = false
	if r.flat == nil {
		r.flat = make([]float64, r.rows*r.channels) // paged out by Release
	}
	return r.win.UnmarshalBinary(data)
}

// appendComponent appends one framework component as a section, requiring
// it to support binary checkpointing.
func appendComponent(dst []byte, name string, v interface{}) ([]byte, error) {
	a, ok := v.(wire.Appender)
	if !ok {
		return nil, fmt.Errorf("core: %s component %T does not support checkpointing", name, v)
	}
	dst, err := wire.AppendSection(dst, a)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %s: %w", name, err)
	}
	return dst, nil
}

// unmarshalComponent restores one framework component section.
func unmarshalComponent(name string, v interface{}, data []byte) error {
	u, ok := v.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("core: %s component %T does not support checkpointing", name, v)
	}
	if err := u.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("core: restore %s: %w", name, err)
	}
	return nil
}

// AppendBinary implements wire.Appender: a full snapshot of the
// detector's streaming state — the warmup/step counters plus one section
// per stateful component (window, training set, drift reference, scorer
// windows). The model is intentionally not included: the leaf Node that
// embeds this detector (streamad.Detector) shadows AppendBinary with the
// full checkpoint — fingerprint, RNG position, model, then this section.
func (d *Detector) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, d.warmupLeft)
	dst = wire.AppendBool(dst, d.warmedUp)
	dst = wire.AppendInt(dst, d.steps)
	dst = wire.AppendInt(dst, d.fineTunes)
	dst = wire.AppendInt(dst, d.sanitized)
	dst = wire.AppendFloat64s(dst, d.lastGood)
	dst, err := appendComponent(dst, "representation", d.cfg.Representer)
	if err != nil {
		return nil, err
	}
	if dst, err = appendComponent(dst, "training-set", d.cfg.TrainingSet); err != nil {
		return nil, err
	}
	if dst, err = appendComponent(dst, "drift", d.cfg.Drift); err != nil {
		return nil, err
	}
	return appendComponent(dst, "scorer", d.cfg.Scorer)
}

// PageIn implements Pager and is AppendBinary's inverse: it restores the
// streaming state — a PageOut blob or the loop section of a full
// checkpoint — into a detector assembled with an identically configured
// set of components, reallocating whatever PageOut released, and
// re-enables Step. Component-level geometry checks reject mismatched
// shapes. Deliberately not named UnmarshalBinary: promoted onto the leaf
// Node it would pass for a full-state decoder and silently skip the model.
func (d *Detector) PageIn(data []byte) error {
	rd := wire.NewReader(data)
	warmupLeft, warmedUp := rd.Int(), rd.Bool()
	steps, fineTunes, sanitized := rd.Int(), rd.Int(), rd.Int()
	rd.Float64s(d.lastGood) // one value per channel under Sanitize, else empty
	if err := unmarshalComponent("representation", d.cfg.Representer, rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := unmarshalComponent("training-set", d.cfg.TrainingSet, rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := unmarshalComponent("drift", d.cfg.Drift, rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := unmarshalComponent("scorer", d.cfg.Scorer, rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := rd.Done(); err != nil {
		return err
	}
	d.warmupLeft, d.warmedUp = warmupLeft, warmedUp
	d.steps, d.fineTunes, d.sanitized = steps, fineTunes, sanitized
	// A full restore reallocates every component's backing storage, so a
	// paged-out detector loaded from snapshot is resident again.
	d.paged = false
	d.blobSize = len(data)
	return nil
}
