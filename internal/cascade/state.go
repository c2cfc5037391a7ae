package cascade

import "streamad/internal/wire"

// snapshotVersion identifies the Cascade.Save envelope layout.
const snapshotVersion = 2

// Walk implements wire.Walker: the configuration fingerprint (admission
// rate, calibration window, member layout) and cascade counters, the
// conformal calibration window, then the gate's and every heavy member's
// own full checkpoint. A fingerprint that differs from the receiver's is
// refused before any state is touched; each member then validates its
// own checkpoint.
func (c *Cascade) Walk(w *wire.Walk) {
	w.Expect("cascade: version", snapshotVersion)
	w.ExpectFloat64("cascade: admit", c.admit)
	w.Expect("cascade: calibration (window, minimum)", c.calib, c.minCalib)
	w.ExpectString("cascade: gate", c.gateLabel)
	w.Expect("cascade: heavy members", len(c.heavyLabels))
	for _, l := range c.heavyLabels {
		w.ExpectString("cascade: heavy member", l)
	}
	for i := range c.heavyReady {
		w.Bool(&c.heavyReady[i])
	}
	w.Bool(&c.allHeavyReady)
	w.Int(&c.steps)
	w.Int(&c.screened)
	w.Int(&c.admitted)
	w.Int(&c.forwarded)
	w.Int(&c.fineTunes)
	w.Float64(&c.lastP)
	w.Section(c.conf.Walk)
	for _, n := range c.Nodes {
		w.Section(n.Walk)
	}
}

// AppendBinary implements core.Node.
func (c *Cascade) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, c) }

// Save returns a binary checkpoint composing the gate's and every heavy
// member's full checkpoint with the conformal calibration window and the
// cascade counters. A cascade restored with Load screens and scores
// bit-identically to an uninterrupted run.
func (c *Cascade) Save() ([]byte, error) { return wire.Append(nil, c) }

// Load restores a checkpoint produced by Save. The cascade must have
// been built with the same configuration (admission rate, calibration
// window, member layout), which is refused before any state is touched;
// each member additionally validates its own checkpoint.
func (c *Cascade) Load(data []byte) error { return wire.Decode(data, c) }
