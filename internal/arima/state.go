package arima

import "streamad/internal/wire"

// Walk implements wire.Walker; the receiver's configuration must match
// the snapshot.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("arima: (lags, d, N)", m.lags, m.d, m.channels)
	w.Float64s(m.gamma)
}

// AppendBinary implements wire.Appender.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, m) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *Model) UnmarshalBinary(data []byte) error { return wire.Decode(data, m) }

// Walk implements wire.Walker for the ONS wrapper: the wrapped model's γ
// plus the accumulated inverse second-moment matrix A⁻¹ (row-major
// lags×lags), so resumed fine-tuning continues the exact Newton
// trajectory.
func (o *ONS) Walk(w *wire.Walk) {
	w.Section(o.model.Walk)
	w.Float64(&o.eta)
	for _, row := range o.ainv {
		w.RawFloat64s(row)
	}
}

// AppendBinary implements wire.Appender.
func (o *ONS) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, o) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (o *ONS) UnmarshalBinary(data []byte) error { return wire.Decode(data, o) }
