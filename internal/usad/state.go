package usad

import (
	"fmt"

	"streamad/internal/nn"
	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender: the three networks, the input
// normalization, the adversarial schedule position and both optimizers'
// Adam moments, so resumed fine-tuning continues the exact trajectory.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, m.dim)
	dst = wire.AppendInt(dst, m.latent)
	dst = wire.AppendInt(dst, m.epoch)
	var err error
	for _, part := range []wire.Appender{m.enc, m.dec1, m.dec2, m.scaler} {
		if dst, err = wire.AppendSection(dst, part); err != nil {
			return nil, err
		}
	}
	dst = nn.AppendOptimizer(dst, m.opt1, m.params1)
	return nn.AppendOptimizer(dst, m.opt2, m.params2), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver must
// have been constructed with the same Config dimensions.
func (m *Model) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if dim, z := rd.Int(), rd.Int(); rd.Err() == nil && (dim != m.dim || z != m.latent) {
		return fmt.Errorf("usad: snapshot (dim=%d z=%d) does not match model (dim=%d z=%d)", dim, z, m.dim, m.latent)
	}
	epoch := rd.Int()
	for _, part := range []interface{ UnmarshalBinary([]byte) error }{m.enc, m.dec1, m.dec2, m.scaler} {
		if err := part.UnmarshalBinary(rd.Section()); err != nil {
			return rd.Fail(err)
		}
	}
	if err := nn.LoadOptimizer(m.opt1, m.params1, rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := nn.LoadOptimizer(m.opt2, m.params2, rd.Section()); err != nil {
		return rd.Fail(err)
	}
	m.epoch = epoch
	return rd.Done()
}
