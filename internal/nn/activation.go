package nn

import "math"

// Activation is an element-wise nonlinearity with a context-passing
// forward/backward pair that writes into caller-provided buffers.
type Activation interface {
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

// ForwardInto implements Activation; ctx is y.
func (Sigmoid) ForwardInto(x, y []float64) []float64 {
	for i, v := range x {
		y[i] = 1 / (1 + math.Exp(-v))
	}
	return y
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

// ForwardInto implements Activation; ctx is y.
func (Tanh) ForwardInto(x, y []float64) []float64 {
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
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

// ForwardInto implements Activation.
func (Identity) ForwardInto(x, y []float64) []float64 {
	copy(y, x)
	return nil
}

// BackwardInto implements Activation.
func (Identity) BackwardInto(_, gradOut, gradIn []float64) {
	copy(gradIn, gradOut)
}

// Name implements Activation.
func (Identity) Name() string { return "identity" }
