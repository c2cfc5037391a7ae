package nbeats

import (
	"streamad/internal/nn"
	"streamad/internal/wire"
)

// Walk implements wire.Walker, including the Adam moment estimates so
// resumed fine-tuning continues the exact optimizer trajectory. The
// receiver must have been constructed with the same configuration
// (blocks, sizes). Each block still carries the basis word of the
// format's former basis families; only 0, the learned basis, is read.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("nbeats: (N, rows, blocks)", m.channels, m.backLen, len(m.blocks))
	w.Section(m.scaler.Walk)
	for _, b := range m.blocks {
		w.Expect("nbeats: block basis", 0)
		w.Section(b.stack.Walk)
		for _, l := range [...]*nn.Linear{b.thetaB, b.thetaF, b.basisB, b.basisF} {
			w.Float64s(l.Weight.W)
			w.Float64s(l.Bias.W)
		}
	}
	nn.WalkOptimizer(w, m.opt, m.params())
}
