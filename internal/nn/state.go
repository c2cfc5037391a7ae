package nn

import "streamad/internal/wire"

// Walk implements wire.Walker: per layer the activation name, weights and
// biases. The receiver's architecture (layer sizes and activations) must
// match the snapshot. Optimizer state is checkpointed separately
// (WalkOptimizer).
func (m *MLP) Walk(w *wire.Walk) {
	w.Expect("nn: layer count", len(m.Layers))
	for i, l := range m.Layers {
		w.ExpectString("nn: activation", m.Acts[i].Name())
		w.Float64s(l.Weight.W)
		w.Float64s(l.Bias.W)
		if w.Decoding() {
			l.Weight.ZeroGrad()
			l.Bias.ZeroGrad()
		}
	}
}

// Walk implements wire.Walker for Scaler.
func (s *Scaler) Walk(w *wire.Walk) {
	w.Float64s(s.mean)
	w.Float64s(s.std)
}

// Walk implements wire.Walker for MinMaxScaler.
func (s *MinMaxScaler) Walk(w *wire.Walk) {
	w.Float64s(s.lo)
	w.Float64s(s.scale)
}

// WalkOptimizer walks a's training position over params (in order) as
// one section — the step counter and the first and second moment
// estimates — so a restored model's next fine-tune continues the exact
// optimizer trajectory instead of restarting the moments at zero. A
// parameter Adam has not stepped yet has all-zero moments; decoding
// allocates the moments it lacks, against the same parameter list.
func WalkOptimizer(w *wire.Walk, a *Adam, params []*Param) {
	w.Section(func(w *wire.Walk) {
		w.Int(&a.t)
		w.Expect("nn: adam parameter count", len(params))
		if w.Decoding() && a.m == nil {
			a.m = make(map[*Param][]float64)
		}
		if w.Decoding() && a.v == nil {
			a.v = make(map[*Param][]float64)
		}
		for _, p := range params {
			walkMoment(w, a.m, p)
			walkMoment(w, a.v, p)
		}
	})
}

// walkMoment walks one moment vector of p, reusing the stored one when
// it fits.
func walkMoment(w *wire.Walk, moments map[*Param][]float64, p *Param) {
	m := moments[p]
	if m == nil && w.Encoding() {
		m = make([]float64, len(p.W)) // not stepped yet: zeros
	}
	if w.Decoding() && len(m) != len(p.W) {
		m = make([]float64, len(p.W))
		moments[p] = m
	}
	w.Float64s(m)
}
