// Package nn is a from-scratch neural-network substrate: fully connected
// layers with manual backpropagation, sigmoid/ReLU/tanh activations, MSE
// loss and SGD/Adam optimizers. Layers expose context-passing Forward/
// Backward pairs so one parameter set can participate in several forward
// passes per step — required by USAD's shared encoder and N-BEATS' double
// residual stacks.
//
// # Buffer ownership
//
// The hot-path API is allocation-free and follows three rules:
//
//  1. Callers own pass state. An MLPContext (from MLP.NewContext) holds
//     every buffer one forward→backward pair needs; it is reused across
//     passes and must serve only one in-flight pass at a time. Code that
//     overlaps several passes of one parameter set (USAD's encoder runs
//     twice before backprop) holds one context per pass. MLP.Predict
//     uses the MLP's private scratch context, so its result is only
//     valid until the next Predict on the same MLP.
//
//  2. Into-variants write into caller buffers and alias instead of
//     copying. Linear.ForwardInto keeps no input copy — the caller
//     preserves x until BackwardInto. Activation contexts alias the
//     pre- or post-activation buffer (ReLU: the input, so its output
//     buffer must not alias it). MLP.BackwardCtx consumes gradOut in
//     place, and its returned gradient aliases the context.
//
//  3. Returned slices from Params, ForwardCtx, BackwardCtx and Predict
//     alias internal state — never retain them across calls or mutate
//     Params' slice. MSELoss writes into the grad buffer the caller
//     passes (allocating only when it is nil); optimizers keep their
//     moment state keyed by *Param and allocate it on first use only.
package nn

import (
	"math"
	"math/rand"
)

// Param is a flat parameter tensor with its gradient accumulator.
type Param struct {
	W []float64 // weights
	G []float64 // accumulated gradients
}

// NewParam allocates a zeroed parameter of n elements.
func NewParam(n int) *Param {
	return &Param{W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// XavierInit fills W with uniform Glorot initialization for a layer with
// the given fan-in and fan-out.
func (p *Param) XavierInit(fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.W {
		p.W[i] = (2*rng.Float64() - 1) * limit
	}
}

// GradNorm returns the Euclidean norm of the gradient, used for clipping.
func (p *Param) GradNorm() float64 {
	var s float64
	for _, g := range p.G {
		s += g * g
	}
	return math.Sqrt(s)
}

// ClipGrads scales the gradients of params so their global norm does not
// exceed maxNorm. It returns the pre-clip global norm.
func ClipGrads(params []*Param, maxNorm float64) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.G {
			s += g * g
		}
	}
	norm := math.Sqrt(s)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.G {
				p.G[i] *= scale
			}
		}
	}
	return norm
}
