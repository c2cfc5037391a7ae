package nbeats

import (
	"streamad/internal/nn"
	"streamad/internal/wire"
)

// learnedLayers lists a block's standalone Linear layers in checkpoint
// order; fixed bases are regenerated from the configuration.
func (b *block) learnedLayers() []*nn.Linear {
	if b.kind == GenericBasis {
		return []*nn.Linear{b.thetaB, b.thetaF, b.basisB, b.basisF}
	}
	return []*nn.Linear{b.thetaB, b.thetaF}
}

// Walk implements wire.Walker, including the Adam moment estimates so
// resumed fine-tuning continues the exact optimizer trajectory. The
// receiver must have been constructed with the same configuration
// (blocks, sizes, bases).
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("nbeats: (N, rows, blocks)", m.channels, m.backLen, len(m.blocks))
	w.Section(m.scaler.Walk)
	for _, b := range m.blocks {
		w.Expect("nbeats: block basis", int(b.kind))
		w.Section(b.stack.Walk)
		for _, l := range b.learnedLayers() {
			w.Float64s(l.Weight.W)
			w.Float64s(l.Bias.W)
		}
	}
	nn.WalkOptimizer(w, m.opt, m.params())
}

// AppendBinary implements wire.Appender.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *Model) UnmarshalBinary(data []byte) error { return wire.Decode(data, m) }
