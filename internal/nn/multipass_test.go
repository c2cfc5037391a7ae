package nn

import (
	"math/rand"
	"testing"
)

// TestMultiPassGradientAccumulation verifies the USAD-critical property:
// one parameter set can run several forward passes, backpropagate each of
// them through its own context, and accumulate the correct total gradient
// — equal to the numeric gradient of the summed loss.
func TestMultiPassGradientAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{2, 3, 2}, Tanh{}, Identity{}, rng)
	x1 := []float64{0.4, -0.9}
	x2 := []float64{-1.1, 0.3}
	t1 := []float64{1, 0}
	t2 := []float64{0, 1}

	totalLoss := func() float64 {
		y1 := m.Predict(x1)
		l1, _ := MSELoss(y1, t1, nil)
		y2 := m.Predict(x2)
		l2, _ := MSELoss(y2, t2, nil)
		return l1 + l2
	}

	// Analytic: two passes, two backwards, gradients accumulate.
	ctx1, ctx2 := m.NewContext(), m.NewContext()
	_, g1 := MSELoss(m.ForwardCtx(ctx1, x1), t1, nil)
	_, g2 := MSELoss(m.ForwardCtx(ctx2, x2), t2, nil)
	m.BackwardCtx(ctx1, g1)
	m.BackwardCtx(ctx2, g2)

	for pi, p := range m.Params() {
		for i := range p.W {
			num := numericGrad(p.W, i, totalLoss)
			if !almostEq(p.G[i], num, 1e-5) {
				t.Fatalf("param %d grad[%d] = %v, numeric %v", pi, i, p.G[i], num)
			}
		}
	}
}

// TestChainedMLPGradient verifies backprop through a composition of two
// MLPs (encoder→decoder), the structure every autoencoder here uses.
func TestChainedMLPGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := NewMLP([]int{3, 4, 2}, Sigmoid{}, Identity{}, rng)
	dec := NewMLP([]int{2, 4, 3}, Sigmoid{}, Identity{}, rng)
	x := []float64{0.2, -0.5, 0.8}

	loss := func() float64 {
		out := dec.Predict(enc.Predict(x))
		l, _ := MSELoss(out, x, nil)
		return l
	}

	encCtx, decCtx := enc.NewContext(), dec.NewContext()
	out := dec.ForwardCtx(decCtx, enc.ForwardCtx(encCtx, x))
	_, g := MSELoss(out, x, nil)
	enc.BackwardCtx(encCtx, dec.BackwardCtx(decCtx, g))

	for pi, p := range append(enc.Params(), dec.Params()...) {
		for i := range p.W {
			num := numericGrad(p.W, i, loss)
			if !almostEq(p.G[i], num, 1e-5) {
				t.Fatalf("param %d grad[%d] = %v, numeric %v", pi, i, p.G[i], num)
			}
		}
	}
}

// TestZeroGradClears verifies ZeroGrad leaves weights intact.
func TestZeroGradClears(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 2}, Identity{}, Identity{}, rng)
	ctx := m.NewContext()
	_, g := MSELoss(m.ForwardCtx(ctx, []float64{1, 1}), []float64{0, 0}, nil)
	m.BackwardCtx(ctx, g)
	w := m.Layers[0].Weight.W[0]
	m.ZeroGrad()
	for _, p := range m.Params() {
		for _, gv := range p.G {
			if gv != 0 {
				t.Fatal("ZeroGrad left a gradient")
			}
		}
	}
	if m.Layers[0].Weight.W[0] != w {
		t.Fatal("ZeroGrad modified weights")
	}
}
