package autoenc

import (
	"streamad/internal/nn"
	"streamad/internal/wire"
)

// Walk implements wire.Walker, including the Adam moment estimates so
// resumed fine-tuning continues the exact optimizer trajectory. The
// receiver must have been constructed with the same Config dimensions.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("autoenc: dim", m.dim)
	w.Section(m.net.Walk)
	w.Section(m.scaler.Walk)
	nn.WalkOptimizer(w, m.opt, m.net.Params())
}
