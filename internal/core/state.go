package core

import (
	"fmt"

	"streamad/internal/wire"
)

// Walk implements wire.Walker for the representer: its checkpoint is the
// underlying vector ring (the last w stream vectors), whose geometry the
// receiver's must match. Decoding invalidates the flat mirror, so the
// next Push rebuilds it from the ring.
func (r *Representer) Walk(w *wire.Walk) {
	if w.Decoding() {
		r.primed = false
		if r.flat == nil {
			r.flat = make([]float64, r.rows*r.channels) // paged out by Release
		}
	}
	r.win.Walk(w)
}

// walkComponent walks one framework component as a section, requiring it
// to support checkpointing.
func walkComponent(w *wire.Walk, name string, v any) {
	c, ok := v.(wire.Walker)
	if !ok {
		w.Fail(fmt.Errorf("core: %s component %T does not support checkpointing", name, v))
		return
	}
	w.Section(c.Walk)
}

// Walk implements wire.Walker: the detector's streaming state — the
// warmup/step counters plus one section per stateful component (window,
// training set, drift reference, scorer windows). The model is
// intentionally not included: the leaf Node that embeds this detector
// (streamad.Detector) shadows Walk with the full checkpoint —
// fingerprint, RNG position, model, then this section. Decoding into a
// detector assembled with an identically configured set of components
// reallocates whatever PageOut released, and component geometry checks
// reject mismatched shapes.
func (d *Detector) Walk(w *wire.Walk) {
	if w.Decoding() {
		d.blobSize = w.Left()
	}
	w.Int(&d.warmupLeft)
	w.Bool(&d.warmedUp)
	w.Int(&d.steps)
	w.Int(&d.fineTunes)
	w.Int(&d.sanitized)
	w.Float64s(d.lastGood) // one value per channel under Sanitize, else empty
	w.Section(d.cfg.Representer.Walk)
	walkComponent(w, "training-set", d.cfg.TrainingSet)
	walkComponent(w, "drift", d.cfg.Drift)
	walkComponent(w, "scorer", d.cfg.Scorer)
	if w.Decoding() {
		// Every component's backing storage is resident again, so a
		// paged-out detector loaded from a checkpoint can Step.
		d.paged = false
	}
}

// PageIn implements Pager and is the inverse of wire.Append(dst, d): it
// restores the streaming state — a PageOut blob or the loop section of a
// full checkpoint — and re-enables Step. Deliberately not named
// UnmarshalBinary: promoted onto the leaf Node it would pass for a
// full-state decoder and silently skip the model.
func (d *Detector) PageIn(data []byte) error { return wire.Decode(data, d) }
