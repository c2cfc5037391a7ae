package arima

import (
	"fmt"

	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, m.lags)
	dst = wire.AppendInt(dst, m.d)
	dst = wire.AppendInt(dst, m.channels)
	return wire.AppendFloat64s(dst, m.gamma), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// configuration must match the snapshot.
func (m *Model) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if lags, d, n := rd.Int(), rd.Int(), rd.Int(); rd.Err() == nil && (lags != m.lags || d != m.d || n != m.channels) {
		return fmt.Errorf("arima: snapshot (lags=%d d=%d N=%d) does not match model (lags=%d d=%d N=%d)",
			lags, d, n, m.lags, m.d, m.channels)
	}
	rd.Float64s(m.gamma)
	return rd.Done()
}

// AppendBinary implements wire.Appender for the ONS wrapper: the wrapped
// model's γ plus the accumulated inverse second-moment matrix A⁻¹
// (row-major lags×lags), so resumed fine-tuning continues the exact
// Newton trajectory.
func (o *ONS) AppendBinary(dst []byte) ([]byte, error) {
	dst, err := wire.AppendSection(dst, o.model)
	if err != nil {
		return nil, err
	}
	dst = wire.AppendFloat64(dst, o.eta)
	for _, row := range o.ainv {
		dst = wire.AppendRawFloat64s(dst, row)
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for ONS.
func (o *ONS) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if err := o.model.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	o.eta = rd.Float64()
	for _, row := range o.ainv {
		rd.RawFloat64s(row)
	}
	return rd.Done()
}
