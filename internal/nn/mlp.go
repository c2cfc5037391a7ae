package nn

import "math/rand"

// MLP is a stack of fully connected layers with per-layer activations.
// It exposes a context-passing forward/backward pair so the same MLP can
// run several forward passes before backpropagating each of them (as the
// USAD encoder does). Contexts own all per-pass scratch — see the package
// comment for the buffer-ownership rules.
type MLP struct {
	Layers []*Linear
	Acts   []Activation

	params  []*Param    // cached flat parameter list, rebuilt lazily by finish
	scratch *MLPContext // Predict's private context, rebuilt lazily by finish
}

// MLPContext carries the per-layer buffers of one forward pass: the
// input copy, pre- and post-activation vectors, the activation backward
// contexts and the per-layer input-gradient buffers. A context is
// allocated once (NewContext) and reused across passes; one context
// serves exactly one in-flight forward→backward pair at a time.
type MLPContext struct {
	in0    []float64   // copy of the pass input
	linOut [][]float64 // pre-activation per layer
	actOut [][]float64 // post-activation per layer (= next layer's input)
	actCtx [][]float64 // activation backward contexts (alias lin/actOut)
	grad   [][]float64 // input-gradient buffer per layer
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes [8,4,8]
// produces Linear(8→4)+act, Linear(4→8)+outAct. Hidden layers use act;
// the final layer uses outAct.
func NewMLP(sizes []int, act, outAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least one layer")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			m.Acts = append(m.Acts, act)
		} else {
			m.Acts = append(m.Acts, outAct)
		}
	}
	m.finish()
	return m
}

// finish builds the cached parameter list and the Predict scratch
// context. It must be called after Layers/Acts are assembled.
func (m *MLP) finish() {
	// Exact capacity: callers append to the returned Params slice, and a
	// full backing array forces those appends to copy instead of writing
	// into the cache.
	ps := make([]*Param, 0, len(m.Layers)*2)
	for _, l := range m.Layers {
		ps = append(ps, l.Weight, l.Bias)
	}
	m.params = ps
	m.scratch = m.NewContext()
}

// NewContext allocates a reusable forward/backward context sized for
// this MLP. Training code that needs several simultaneous passes over
// one parameter set (USAD's shared encoder) allocates one context per
// in-flight pass.
func (m *MLP) NewContext() *MLPContext {
	ctx := &MLPContext{
		in0:    make([]float64, m.Layers[0].In),
		linOut: make([][]float64, len(m.Layers)),
		actOut: make([][]float64, len(m.Layers)),
		actCtx: make([][]float64, len(m.Layers)),
		grad:   make([][]float64, len(m.Layers)),
	}
	for i, l := range m.Layers {
		ctx.linOut[i] = make([]float64, l.Out)
		ctx.actOut[i] = make([]float64, l.Out)
		ctx.grad[i] = make([]float64, l.In)
	}
	return ctx
}

// ForwardCtx runs a forward pass through ctx, allocation-free, and
// returns the output — which aliases ctx's last activation buffer and
// stays valid until the context's next forward pass.
func (m *MLP) ForwardCtx(ctx *MLPContext, x []float64) []float64 {
	if len(x) != m.Layers[0].In {
		panic("nn: MLP input dimension mismatch")
	}
	copy(ctx.in0, x)
	in := ctx.in0
	for i, l := range m.Layers {
		l.ForwardInto(in, ctx.linOut[i])
		ctx.actCtx[i] = m.Acts[i].ForwardInto(ctx.linOut[i], ctx.actOut[i])
		in = ctx.actOut[i]
	}
	return in
}

// BackwardCtx backpropagates gradOut through the pass recorded in ctx,
// accumulating parameter gradients, and returns the input gradient —
// which aliases ctx's first gradient buffer. gradOut is consumed: the
// output layer's activation backward runs in place on it.
func (m *MLP) BackwardCtx(ctx *MLPContext, gradOut []float64) []float64 {
	g := gradOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		m.Acts[i].BackwardInto(ctx.actCtx[i], g, g)
		in := ctx.in0
		if i > 0 {
			in = ctx.actOut[i-1]
		}
		m.Layers[i].BackwardInto(in, g, ctx.grad[i])
		g = ctx.grad[i]
	}
	return g
}

// Forward runs a forward pass through a freshly allocated context and
// returns the output with that context. Hot paths should hold a context
// and call ForwardCtx instead.
func (m *MLP) Forward(x []float64) ([]float64, *MLPContext) {
	ctx := m.NewContext()
	return m.ForwardCtx(ctx, x), ctx
}

// Backward backpropagates gradOut through the pass recorded in ctx,
// accumulating parameter gradients, and returns the input gradient.
// Like BackwardCtx it consumes gradOut in place.
func (m *MLP) Backward(ctx *MLPContext, gradOut []float64) []float64 {
	return m.BackwardCtx(ctx, gradOut)
}

// Predict is an allocation-free forward pass through the MLP's private
// scratch context. The returned slice is reused by the next Predict or
// ForwardCtx-on-scratch call; copy it to retain.
func (m *MLP) Predict(x []float64) []float64 {
	if m.scratch == nil {
		// One-time lazy build for zero-value MLPs; NewMLP pre-builds, so a
		// warm Predict never takes this branch.
		m.finish()
	}
	return m.ForwardCtx(m.scratch, x)
}

// Params returns all parameters of the MLP. The returned slice is cached
// and shared; callers must not modify it.
func (m *MLP) Params() []*Param {
	if m.params == nil {
		m.finish()
	}
	return m.params
}

// ZeroGrad clears all parameter gradients.
func (m *MLP) ZeroGrad() {
	// Params only allocates on its one-time lazy build; warm MLPs return
	// the cached slice.
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// InDim returns the input dimensionality.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim returns the output dimensionality.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }
