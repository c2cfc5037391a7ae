package usad

import (
	"streamad/internal/nn"
	"streamad/internal/wire"
)

// Walk implements wire.Walker: the three networks, the input
// normalization, the adversarial schedule position and both optimizers'
// Adam moments, so resumed fine-tuning continues the exact trajectory.
// The receiver must have been constructed with the same Config
// dimensions.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("usad: (dim, z)", m.dim, m.latent)
	w.Int(&m.epoch)
	w.Section(m.enc.Walk)
	w.Section(m.dec1.Walk)
	w.Section(m.dec2.Walk)
	w.Section(m.scaler.Walk)
	nn.WalkOptimizer(w, m.opt1, m.params1)
	nn.WalkOptimizer(w, m.opt2, m.params2)
}
