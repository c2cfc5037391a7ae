package nbeats

import (
	"fmt"

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

// AppendBinary implements wire.Appender, including the Adam moment
// estimates so resumed fine-tuning continues the exact optimizer
// trajectory.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, m.channels)
	dst = wire.AppendInt(dst, m.backLen)
	dst = wire.AppendInt(dst, len(m.blocks))
	dst, err := wire.AppendSection(dst, m.scaler)
	if err != nil {
		return nil, err
	}
	for _, b := range m.blocks {
		dst = wire.AppendInt(dst, int(b.kind))
		if dst, err = wire.AppendSection(dst, b.stack); err != nil {
			return nil, err
		}
		for _, l := range b.learnedLayers() {
			dst = wire.AppendFloat64s(dst, l.Weight.W)
			dst = wire.AppendFloat64s(dst, l.Bias.W)
		}
	}
	return nn.AppendOptimizer(dst, m.opt, m.params()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver must
// have been constructed with the same configuration (blocks, sizes,
// bases).
func (m *Model) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if n, rows, blocks := rd.Int(), rd.Int(), rd.Int(); rd.Err() == nil &&
		(n != m.channels || rows != m.backLen || blocks != len(m.blocks)) {
		return fmt.Errorf("nbeats: snapshot shape (N=%d rows=%d blocks=%d) does not match model (N=%d rows=%d blocks=%d)",
			n, rows, blocks, m.channels, m.backLen, len(m.blocks))
	}
	if err := m.scaler.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	for i, b := range m.blocks {
		if kind := BasisKind(rd.Int()); rd.Err() == nil && kind != b.kind {
			return fmt.Errorf("nbeats: block %d basis %v != %v", i, kind, b.kind)
		}
		if err := b.stack.UnmarshalBinary(rd.Section()); err != nil {
			return rd.Fail(err)
		}
		for _, l := range b.learnedLayers() {
			rd.Float64s(l.Weight.W)
			rd.Float64s(l.Bias.W)
		}
		if rd.Err() != nil {
			return fmt.Errorf("nbeats: block %d: %w", i, rd.Err())
		}
	}
	if err := nn.LoadOptimizer(m.opt, m.params(), rd.Section()); err != nil {
		return rd.Fail(err)
	}
	return rd.Done()
}
