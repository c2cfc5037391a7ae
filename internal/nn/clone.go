package nn

// Clone returns a deep copy of the parameter (weights and gradients).
func (p *Param) Clone() *Param {
	q := &Param{W: make([]float64, len(p.W)), G: make([]float64, len(p.G))}
	copy(q.W, p.W)
	copy(q.G, p.G)
	return q
}

// Clone returns a deep copy of the layer.
func (l *Linear) Clone() *Linear {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight.Clone(), Bias: l.Bias.Clone()}
}

// Clone returns a deep copy of the MLP (activations are stateless and
// shared). The clone gets its own Predict slab, so original and clone
// can run on different goroutines.
func (m *MLP) Clone() *MLP {
	c := &MLP{Acts: make([]Activation, len(m.Acts))}
	copy(c.Acts, m.Acts)
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, l.Clone())
	}
	c.finish()
	return c
}

// CloneOptimizer deep-copies an optimizer's state for a cloned parameter
// set: moment slices keyed by oldParams[i] are re-keyed to newParams[i].
// The two slices must list the respective models' parameters in the same
// order.
func CloneOptimizer(o *Adam, oldParams, newParams []*Param) *Adam {
	if len(oldParams) != len(newParams) {
		panic("nn: CloneOptimizer parameter count mismatch")
	}
	remap := make(map[*Param]*Param, len(oldParams))
	for i, p := range oldParams {
		remap[p] = newParams[i]
	}
	cloneMap := func(src map[*Param][]float64) map[*Param][]float64 {
		dst := make(map[*Param][]float64, len(src))
		for p, s := range src {
			np, ok := remap[p]
			if !ok {
				np = p
			}
			c := make([]float64, len(s))
			copy(c, s)
			dst[np] = c
		}
		return dst
	}
	return &Adam{LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Eps: o.Eps,
		t: o.t, m: cloneMap(o.m), v: cloneMap(o.v)}
}
