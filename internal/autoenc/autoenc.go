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
	opt    nn.Optimizer
	scaler *nn.Scaler
	dim    int
	lr     float64        // learning rate fixed at construction; snapshots restore onto an identically-configured model
	grad   []float64      // per-call gradient scratch
	zbuf   []float64      // per-call scaling scratch
	ctx    *nn.MLPContext // training pass scratch, allocated at construction
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
	return &Model{
		net:    net,
		opt:    nn.NewAdam(lr),
		scaler: nn.NewScaler(cfg.Dim),
		dim:    cfg.Dim,
		lr:     lr,
		grad:   make([]float64, cfg.Dim),
		zbuf:   make([]float64, cfg.Dim),
		ctx:    net.NewContext(),
	}, nil
}

// CloneModel returns a full-fidelity deep copy — weights, optimizer
// moments and scaler — for the asynchronous fine-tuning path: the clone
// trains on a background goroutine while the original keeps scoring.
func (m *Model) CloneModel() any {
	net := m.net.Clone()
	opt := nn.CloneOptimizer(m.opt, m.net.Params(), net.Params())
	if opt == nil {
		opt = nn.NewAdam(m.lr)
	}
	return &Model{
		net:    net,
		opt:    opt,
		scaler: m.scaler.Clone(),
		dim:    m.dim,
		lr:     m.lr,
		grad:   make([]float64, m.dim),
		zbuf:   make([]float64, m.dim),
		ctx:    net.NewContext(),
	}
}

// Dim returns the feature-vector length.
func (m *Model) Dim() int { return m.dim }

// Predict implements the framework model contract: target is the feature
// vector itself, prediction is its reconstruction in the original space.
func (m *Model) Predict(x []float64) (target, pred []float64) {
	if len(x) != m.dim {
		panic(fmt.Sprintf("autoenc: expected %d values, got %d", m.dim, len(x)))
	}
	z := m.scaler.Transform(x, m.zbuf)
	out := m.net.Predict(z)
	return x, m.scaler.Inverse(out, out)
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

// ReconstructionLoss returns the standardized-space MSE between x and its
// reconstruction, exposed for the Figure 1 fine-tuning experiment.
func (m *Model) ReconstructionLoss(x []float64) float64 {
	z := m.scaler.Transform(x, nil)
	out := m.net.Predict(z)
	loss, _ := nn.MSELoss(out, z, nil)
	return loss
}
