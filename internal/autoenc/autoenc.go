// Package autoenc implements the paper's two-layer autoencoder baseline:
//
//	x̂ = r⁻¹( σ(r(x)·W₁ + b₁)·W₂ + b₂ ),
//
// a single sigmoid hidden layer and a linear reconstruction layer over the
// flattened feature vector r(x) ∈ R^{N·w}. It is the simplest
// reconstruction-based model in the evaluation.
package autoenc

import (
	"fmt"
	"math/rand"

	"streamad/internal/nn"
	"streamad/internal/randstate"
)

// Model is the 2-layer reconstruction autoencoder. Inputs are
// standardized with per-dimension moments refreshed at every Fit, so the
// sigmoid hidden layer operates in its responsive range regardless of the
// stream's scale; predictions are mapped back to the original space.
type Model struct {
	net    *nn.MLP
	opt    *nn.Adam
	scaler *nn.Scaler
	dim    int
	grad   []float64      // per-call gradient scratch
	zbuf   []float64      // per-call scaling scratch
	ctx    *nn.MLPContext // training pass scratch, allocated at construction
	slab   []float64      // Predict's scratch, BatchScratch(1) long, allocated at construction
}

// Config parameterizes the autoencoder.
type Config struct {
	// Dim is the flattened feature-vector length N·w.
	Dim int
	// Hidden is the bottleneck width (default Dim/4, at least 2).
	Hidden int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Seed drives weight initialization.
	Seed int64
}

// New returns an initialized 2-layer autoencoder.
func New(cfg Config) (*Model, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("autoenc: Dim must be positive, got %d", cfg.Dim)
	}
	hidden := cfg.Hidden
	if hidden == 0 {
		hidden = cfg.Dim / 4
	}
	if hidden < 2 {
		hidden = 2
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 1e-3
	}
	rng := rand.New(randstate.NewCountedSource(cfg.Seed))
	net := nn.NewMLP([]int{cfg.Dim, hidden, cfg.Dim}, nn.Sigmoid{}, nn.Identity{}, rng)
	m := &Model{
		net:    net,
		opt:    nn.NewAdam(lr),
		scaler: nn.NewScaler(cfg.Dim),
		dim:    cfg.Dim,
		grad:   make([]float64, cfg.Dim),
		zbuf:   make([]float64, cfg.Dim),
		ctx:    net.NewContext(),
	}
	m.slab = make([]float64, m.BatchScratch(1))
	return m, nil
}

// Predict implements the framework model contract: target is the feature
// vector itself, prediction is its reconstruction in the original space.
// It is PredictBatch of one window, in the model's own scratch.
func (m *Model) Predict(x []float64) (target, pred []float64) { return m.PredictBatch(x, 1, m.slab) }

// BatchScratch is the scratch PredictBatch needs for batch windows: the
// scaled inputs, the predictions and the network's slab.
func (m *Model) BatchScratch(batch int) int { return 2*m.dim*batch + m.net.SlabLen(batch) }

// PredictBatch reconstructs batch windows laid end to end in xs (window s
// at xs[s*Dim():]) in one pass per layer, in scratch (BatchScratch(batch)
// long): the targets are xs itself, the predictions are laid out the
// same way in scratch, each bit-identical to that window's Predict.
func (m *Model) PredictBatch(xs []float64, batch int, scratch []float64) (targets, preds []float64) {
	n := m.dim * batch
	if len(xs) != n {
		panic(fmt.Sprintf("autoenc: expected %d values, got %d", n, len(xs)))
	}
	z, out, net := scratch[:n], scratch[n:2*n], scratch[2*n:]
	m.scaler.TransformBatch(xs, batch, z)
	m.scaler.InverseBatch(m.net.PredictBatch(z, batch, net), batch, out, 0)
	return xs, out
}

// Fit refreshes the input scaler and runs one reconstruction epoch
// (per-sample Adam steps) over the training set. The whole epoch runs in
// preallocated scratch — zero heap allocations per sample.
func (m *Model) Fit(set [][]float64) {
	m.scaler.Fit(set)
	params := m.net.Params()
	for _, x := range set {
		if len(x) != m.dim {
			continue
		}
		z := m.scaler.Transform(x, m.zbuf)
		out := m.net.ForwardCtx(m.ctx, z)
		_, grad := nn.MSELoss(out, z, m.grad)
		m.net.BackwardCtx(m.ctx, grad)
		nn.ClipGrads(params, 5)
		m.opt.Step(params)
	}
}
