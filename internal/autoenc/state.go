package autoenc

import (
	"fmt"

	"streamad/internal/nn"
	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender, including the Adam moment
// estimates so resumed fine-tuning continues the exact optimizer
// trajectory.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, m.dim)
	dst, err := wire.AppendSection(dst, m.net)
	if err != nil {
		return nil, err
	}
	if dst, err = wire.AppendSection(dst, m.scaler); err != nil {
		return nil, err
	}
	return nn.AppendOptimizer(dst, m.opt, m.net.Params()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver must
// have been constructed with the same Config dimensions.
func (m *Model) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if dim := rd.Int(); rd.Err() == nil && dim != m.dim {
		return fmt.Errorf("autoenc: snapshot dim %d != model dim %d", dim, m.dim)
	}
	if err := m.net.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := m.scaler.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := nn.LoadOptimizer(m.opt, m.net.Params(), rd.Section()); err != nil {
		return rd.Fail(err)
	}
	return rd.Done()
}
