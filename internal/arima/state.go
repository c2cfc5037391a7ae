package arima

import "streamad/internal/wire"

// Walk implements wire.Walker; the receiver's configuration must match
// the snapshot.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("arima: (lags, d, N)", m.lags, m.d, m.channels)
	w.Float64s(m.gamma)
}

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
