package nn

import "math"

// Activation is an element-wise nonlinearity with a context-passing
// forward/backward pair. The Into variants write into caller-provided
// buffers and are what the zero-allocation training kernels use; the
// plain Forward/Backward pair allocates and remains for convenience.
type Activation interface {
	// Forward applies the activation and returns (y, ctx); ctx carries
	// whatever Backward needs (typically y itself).
	Forward(x []float64) (y, ctx []float64)
	// Backward returns ∂L/∂x given ctx and ∂L/∂y.
	Backward(ctx, gradOut []float64) []float64
	// ForwardInto applies the activation, writing into y (len(y) must
	// equal len(x)), and returns the backward context. The context
	// aliases x or y — the caller must keep the aliased buffer intact
	// until the matching BackwardInto. For activations whose context is
	// the pre-activation input (ReLU), y must not alias x.
	ForwardInto(x, y []float64) (ctx []float64)
	// BackwardInto writes ∂L/∂x into gradIn given ctx and ∂L/∂y.
	// gradIn may alias gradOut.
	BackwardInto(ctx, gradOut, gradIn []float64)
	// Name identifies the activation.
	Name() string
}

// Sigmoid is σ(x) = 1/(1+e^{−x}).
type Sigmoid struct{}

// Forward implements Activation; ctx is the output y (σ' = y(1−y)).
func (s Sigmoid) Forward(x []float64) (y, ctx []float64) {
	y = make([]float64, len(x))
	return y, s.ForwardInto(x, y)
}

// ForwardInto implements Activation; ctx is y.
func (Sigmoid) ForwardInto(x, y []float64) []float64 {
	for i, v := range x {
		y[i] = 1 / (1 + math.Exp(-v))
	}
	return y
}

// Backward implements Activation.
func (s Sigmoid) Backward(ctx, gradOut []float64) []float64 {
	g := make([]float64, len(gradOut))
	s.BackwardInto(ctx, gradOut, g)
	return g
}

// BackwardInto implements Activation.
func (Sigmoid) BackwardInto(ctx, gradOut, gradIn []float64) {
	for i, go_ := range gradOut {
		y := ctx[i]
		gradIn[i] = go_ * y * (1 - y)
	}
}

// Name implements Activation.
func (Sigmoid) Name() string { return "sigmoid" }

// ReLU is max(0, x).
type ReLU struct{}

// Forward implements Activation; ctx is a copy of the input x.
func (ReLU) Forward(x []float64) (y, ctx []float64) {
	y = make([]float64, len(x))
	ctx = make([]float64, len(x))
	copy(ctx, x)
	for i, v := range x {
		if v > 0 {
			y[i] = v
		}
	}
	return y, ctx
}

// ForwardInto implements Activation; ctx is x itself (no copy), so the
// caller must preserve x until BackwardInto and y must not alias x.
func (ReLU) ForwardInto(x, y []float64) []float64 {
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
	return x
}

// Backward implements Activation.
func (r ReLU) Backward(ctx, gradOut []float64) []float64 {
	g := make([]float64, len(gradOut))
	r.BackwardInto(ctx, gradOut, g)
	return g
}

// BackwardInto implements Activation.
func (ReLU) BackwardInto(ctx, gradOut, gradIn []float64) {
	for i, go_ := range gradOut {
		if ctx[i] > 0 {
			gradIn[i] = go_
		} else {
			gradIn[i] = 0
		}
	}
}

// Name implements Activation.
func (ReLU) Name() string { return "relu" }

// Tanh is the hyperbolic tangent.
type Tanh struct{}

// Forward implements Activation; ctx is the output y (tanh' = 1−y²).
func (t Tanh) Forward(x []float64) (y, ctx []float64) {
	y = make([]float64, len(x))
	return y, t.ForwardInto(x, y)
}

// ForwardInto implements Activation; ctx is y.
func (Tanh) ForwardInto(x, y []float64) []float64 {
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// Backward implements Activation.
func (t Tanh) Backward(ctx, gradOut []float64) []float64 {
	g := make([]float64, len(gradOut))
	t.BackwardInto(ctx, gradOut, g)
	return g
}

// BackwardInto implements Activation.
func (Tanh) BackwardInto(ctx, gradOut, gradIn []float64) {
	for i, go_ := range gradOut {
		y := ctx[i]
		gradIn[i] = go_ * (1 - y*y)
	}
}

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// Identity passes values through unchanged (used for linear output layers).
type Identity struct{}

// Forward implements Activation.
func (Identity) Forward(x []float64) (y, ctx []float64) {
	y = make([]float64, len(x))
	copy(y, x)
	return y, nil
}

// ForwardInto implements Activation.
func (Identity) ForwardInto(x, y []float64) []float64 {
	copy(y, x)
	return nil
}

// Backward implements Activation.
func (Identity) Backward(_, gradOut []float64) []float64 {
	g := make([]float64, len(gradOut))
	copy(g, gradOut)
	return g
}

// BackwardInto implements Activation.
func (Identity) BackwardInto(_, gradOut, gradIn []float64) {
	copy(gradIn, gradOut)
}

// Name implements Activation.
func (Identity) Name() string { return "identity" }
