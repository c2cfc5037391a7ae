package nn

import (
	"math/rand"
	"testing"
)

// TestZeroAllocKernels pins the training kernels a fine-tune runs once per
// sample: with caller-owned buffers and warm optimizer state, none of them
// may touch the heap. The scoring kernels are pinned end to end by the
// root package's TestStepZeroAlloc* tests.
func TestZeroAllocKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mlp := NewMLP([]int{6, 5, 4}, Sigmoid{}, Identity{}, rng)
	ctx := mlp.NewContext()
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	params := mlp.Params()
	lin := mlp.Layers[0]
	y, gIn := make([]float64, lin.Out), make([]float64, lin.In)
	act, actOut := make([]float64, 8), make([]float64, 8)
	grad, target := make([]float64, mlp.OutDim()), make([]float64, mlp.OutDim())
	for i := range act {
		act[i] = rng.NormFloat64()
	}
	fillGrads := func() {
		for _, p := range params {
			for i := range p.G {
				p.G[i] = 10 * rng.NormFloat64()
			}
		}
	}
	adam := NewAdam(0.01)
	adam.Step(params) // allocates the moments on first use

	type row struct {
		name string
		run  func()
	}
	rows := []row{
		{"Linear.BackwardInto", func() { lin.ForwardInto(x, y); lin.BackwardInto(x, y, gIn) }},
		{"MLP.BackwardCtx", func() { mlp.BackwardCtx(ctx, mlp.ForwardCtx(ctx, x)) }},
		{"MLP.ZeroGrad", mlp.ZeroGrad},
		{"Adam.Step", func() { fillGrads(); adam.Step(params) }},
		{"MSELoss", func() { MSELoss(mlp.Predict(x), target, grad) }},
		{"ClipGrads", func() { fillGrads(); ClipGrads(params, 1) }},
		{"Param.ZeroGrad", params[0].ZeroGrad},
	}
	for _, a := range []Activation{Sigmoid{}, ReLU{}, Tanh{}, Identity{}} {
		rows = append(rows, row{a.Name(), func() { a.BackwardInto(a.ForwardInto(act, actOut), act, actOut) }})
	}
	kernelPaths(t, func(t *testing.T) {
		for _, r := range rows {
			if allocs := testing.AllocsPerRun(50, r.run); allocs != 0 {
				t.Errorf("%s allocates %.1f objects per call, want 0", r.name, allocs)
			}
		}
	})
}
