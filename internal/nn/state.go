package nn

import (
	"fmt"

	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender: per layer the activation name
// (validated on restore), weights and biases. Optimizer state is
// checkpointed separately (AppendOptimizer).
func (m *MLP) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, len(m.Layers))
	for i, l := range m.Layers {
		dst = wire.AppendString(dst, m.Acts[i].Name())
		dst = wire.AppendFloat64s(dst, l.Weight.W)
		dst = wire.AppendFloat64s(dst, l.Bias.W)
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver's
// architecture (layer sizes and activations) must match the snapshot.
func (m *MLP) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if n := rd.Int(); rd.Err() == nil && n != len(m.Layers) {
		return fmt.Errorf("nn: snapshot has %d layers, model has %d", n, len(m.Layers))
	}
	for i, l := range m.Layers {
		if act := rd.String(); rd.Err() == nil && act != m.Acts[i].Name() {
			return fmt.Errorf("nn: layer %d activation %q != %q", i, act, m.Acts[i].Name())
		}
		rd.Float64s(l.Weight.W)
		rd.Float64s(l.Bias.W)
		if rd.Err() != nil {
			return fmt.Errorf("nn: layer %d: %w", i, rd.Err())
		}
		l.Weight.ZeroGrad()
		l.Bias.ZeroGrad()
	}
	return rd.Done()
}

// AppendBinary implements wire.Appender for Scaler.
func (s *Scaler) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendFloat64s(wire.AppendFloat64s(dst, s.mean), s.std), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for Scaler.
func (s *Scaler) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	rd.Float64s(s.mean)
	rd.Float64s(s.std)
	return rd.Done()
}

// AppendBinary implements wire.Appender for MinMaxScaler.
func (s *MinMaxScaler) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendFloat64s(wire.AppendFloat64s(dst, s.lo), s.scale), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for MinMaxScaler.
func (s *MinMaxScaler) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	rd.Float64s(s.lo)
	rd.Float64s(s.scale)
	return rd.Done()
}

// appendMoment appends one Adam moment vector for a parameter of n
// weights; a parameter Adam has not stepped yet has all-zero moments.
func appendMoment(dst []byte, m []float64, n int) []byte {
	if m == nil {
		return append(wire.AppendInt(dst, n), make([]byte, 8*n)...)
	}
	return wire.AppendFloat64s(dst, m)
}

// readMoment restores one moment vector, reusing m when it fits.
func readMoment(rd *wire.Reader, m []float64, n int) []float64 {
	if len(m) != n {
		m = make([]float64, n)
	}
	rd.Float64s(m)
	return m
}

// AppendOptimizer appends a's training position over params (in order)
// as one section: the step counter and first/second moment estimates,
// so a restored model's next fine-tune continues the exact optimizer
// trajectory instead of restarting the moments at zero.
func AppendOptimizer(dst []byte, a *Adam, params []*Param) []byte {
	dst, mark := wire.BeginSection(dst)
	dst = wire.AppendInt(dst, a.t)
	dst = wire.AppendInt(dst, len(params))
	for _, p := range params {
		dst = appendMoment(dst, a.m[p], len(p.W))
		dst = appendMoment(dst, a.v[p], len(p.W))
	}
	return wire.EndSection(dst, mark)
}

// LoadOptimizer restores an AppendOptimizer section into a against the
// same parameter list (same order, same shapes). An empty section leaves
// the optimizer untouched (fresh state).
func LoadOptimizer(a *Adam, params []*Param, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	rd := wire.NewReader(data)
	t := rd.Int()
	if n := rd.Int(); rd.Err() == nil && n != len(params) {
		return fmt.Errorf("nn: adam snapshot covers %d params, model has %d", n, len(params))
	}
	if a.m == nil {
		a.m = make(map[*Param][]float64)
	}
	if a.v == nil {
		a.v = make(map[*Param][]float64)
	}
	for i, p := range params {
		a.m[p] = readMoment(&rd, a.m[p], len(p.W))
		a.v[p] = readMoment(&rd, a.v[p], len(p.W))
		if rd.Err() != nil {
			return fmt.Errorf("nn: adam snapshot param %d: %w", i, rd.Err())
		}
	}
	a.t = t
	return rd.Done()
}
