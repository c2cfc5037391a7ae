// Package usad implements USAD (Audibert et al., KDD 2020): an adversarial
// autoencoder with one shared encoder E and two decoders D₁, D₂. Training
// alternates two objectives whose adversarial weight grows with the epoch
// counter n:
//
//	L_AE1 = (1/n)·R₁ + ((n−1)/n)·R_both   (minimized by E, D₁)
//	L_AE2 = (1/n)·R₂ − ((n−1)/n)·R_both   (minimized by E, D₂)
//
// with R_i = ‖x − AE_i(x)‖² and R_both = ‖x − AE₂(AE₁(x))‖². AE₁ learns to
// reconstruct well enough that AE₂ cannot tell its output from real data,
// while AE₂ learns to amplify reconstruction errors — which is what makes
// the two-pass reconstruction sensitive to anomalies.
//
// As in the original implementation, inputs are min-max normalized to
// [0,1] (refreshed at every Fit, so the normalization is part of θ_model)
// and, as in the reference implementation, hidden layers use ReLU with
// sigmoid decoder outputs; the bounded decoders are what
// keep the adversarial maximization of R_both from diverging.
package usad

import (
	"fmt"
	"math/rand"

	"streamad/internal/nn"
	"streamad/internal/randstate"
)

// Model is a USAD adversarial autoencoder over min-max normalized inputs.
type Model struct {
	enc    *nn.MLP // E:  dim → z (3 FC layers)
	dec1   *nn.MLP // D₁: z → dim (3 FC layers)
	dec2   *nn.MLP // D₂: z → dim (3 FC layers)
	opt1   nn.Optimizer
	opt2   nn.Optimizer
	scaler *nn.MinMaxScaler
	dim    int
	latent int
	lr     float64   // learning rate fixed at construction; snapshots restore onto an identically-configured model
	epoch  int       // adversarial schedule counter n
	zbuf   []float64 // per-call scaling scratch, built by initScratch at construction
	// Alpha/Beta weight the two reconstruction errors in the inference
	// score ½·(α·R₁ + β·R_both); defaults 0.5/0.5.
	//
	// Both are fixed at construction, not learned state.
	Alpha, Beta float64

	// Preallocated training scratch: the adversarial steps run up to two
	// concurrent passes through E and D₂, so each in-flight pass gets its
	// own context; g1..g3 are the loss-gradient buffers and params1/2 the
	// cached per-objective parameter lists.
	encCtxA, encCtxB   *nn.MLPContext // training scratch, built by initScratch at construction
	dec1Ctx            *nn.MLPContext // training scratch, built by initScratch at construction
	dec2CtxA, dec2CtxB *nn.MLPContext // training scratch, built by initScratch at construction
	g1, g2, g3         []float64      // loss-gradient scratch, built by initScratch at construction
	outBuf             []float64      // forward-pass scratch, built by initScratch at construction
	params1, params2   []*nn.Param    // parameter lists the two objectives step, built by initScratch; Load copies weights in place so the pointers stay valid, and the Adam moments checkpoint in this order
}

// initScratch builds the reusable training/inference buffers; it must run
// after enc/dec1/dec2 are in place.
func (m *Model) initScratch() {
	m.encCtxA, m.encCtxB = m.enc.NewContext(), m.enc.NewContext()
	m.dec1Ctx = m.dec1.NewContext()
	m.dec2CtxA, m.dec2CtxB = m.dec2.NewContext(), m.dec2.NewContext()
	m.g1 = make([]float64, m.dim)
	m.g2 = make([]float64, m.dim)
	m.g3 = make([]float64, m.dim)
	m.outBuf = make([]float64, m.dim)
	m.zbuf = make([]float64, m.dim)
	m.params1 = append(append([]*nn.Param(nil), m.enc.Params()...), m.dec1.Params()...)
	m.params2 = append(append([]*nn.Param(nil), m.enc.Params()...), m.dec2.Params()...)
}

// Config parameterizes USAD.
type Config struct {
	// Dim is the flattened feature-vector length N·w.
	Dim int
	// Latent is the bottleneck width Z ≪ w (default max(Dim/8, 2)).
	Latent int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Seed drives weight initialization.
	Seed int64
}

// New returns an initialized USAD model.
func New(cfg Config) (*Model, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("usad: Dim must be positive, got %d", cfg.Dim)
	}
	z := cfg.Latent
	if z == 0 {
		z = cfg.Dim / 8
	}
	if z < 2 {
		z = 2
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 1e-3
	}
	rng := rand.New(randstate.NewCountedSource(cfg.Seed))
	d := cfg.Dim
	h1, h2 := mid(d, z), mid2(d, z)
	encSizes := []int{d, h1, h2, z}
	decSizes := []int{z, h2, h1, d}
	m := &Model{
		enc:    nn.NewMLP(encSizes, nn.ReLU{}, nn.ReLU{}, rng),
		dec1:   nn.NewMLP(decSizes, nn.ReLU{}, nn.Sigmoid{}, rng),
		dec2:   nn.NewMLP(decSizes, nn.ReLU{}, nn.Sigmoid{}, rng),
		opt1:   nn.NewAdam(lr),
		opt2:   nn.NewAdam(lr),
		scaler: nn.NewMinMaxScaler(d),
		dim:    d,
		latent: z,
		lr:     lr,
		Alpha:  0.5,
		Beta:   0.5,
	}
	m.initScratch()
	return m, nil
}

// mid and mid2 pick intermediate layer widths between dim and latent.
func mid(d, z int) int {
	m := (d + z) / 2
	if m < z {
		m = z
	}
	return m
}

func mid2(d, z int) int {
	m := (d + 3*z) / 4
	if m < z {
		m = z
	}
	return m
}

// Clone returns a deep copy of the model parameters and adversarial
// schedule. The optimizers' moment estimates are not copied: a clone is
// intended as a frozen "before fine-tuning" snapshot (Figure 1); if it is
// trained further it starts with fresh Adam state.
func (m *Model) Clone() *Model {
	c := &Model{
		enc:    m.enc.Clone(),
		dec1:   m.dec1.Clone(),
		dec2:   m.dec2.Clone(),
		opt1:   nn.NewAdam(m.lr),
		opt2:   nn.NewAdam(m.lr),
		scaler: m.scaler.Clone(),
		dim:    m.dim,
		latent: m.latent,
		lr:     m.lr,
		epoch:  m.epoch,
		Alpha:  m.Alpha,
		Beta:   m.Beta,
	}
	c.initScratch()
	return c
}

// CloneModel returns a full-fidelity deep copy — weights, both
// optimizers' moment estimates, normalization and the adversarial
// schedule — for the asynchronous fine-tuning path. Unlike Clone, a
// CloneModel copy continues the exact training trajectory the original
// would have followed.
func (m *Model) CloneModel() any {
	c := m.Clone()
	oldAll := append(append(append([]*nn.Param(nil), m.enc.Params()...), m.dec1.Params()...), m.dec2.Params()...)
	newAll := append(append(append([]*nn.Param(nil), c.enc.Params()...), c.dec1.Params()...), c.dec2.Params()...)
	if opt := nn.CloneOptimizer(m.opt1, oldAll, newAll); opt != nil {
		c.opt1 = opt
	}
	if opt := nn.CloneOptimizer(m.opt2, oldAll, newAll); opt != nil {
		c.opt2 = opt
	}
	return c
}

// Dim returns the feature-vector length.
func (m *Model) Dim() int { return m.dim }

// Latent returns the bottleneck width.
func (m *Model) Latent() int { return m.latent }

// Epoch returns the adversarial schedule counter n.
func (m *Model) Epoch() int { return m.epoch }

// ae1 computes AE₁(x) = D₁(E(x)).
func (m *Model) ae1(x []float64) []float64 {
	return m.dec1.Predict(m.enc.Predict(x))
}

// Predict implements the framework model contract: target is the feature
// vector, prediction is the USAD inference reconstruction — the blend
// α·AE₁(x) + β·AE₂(AE₁(x)) mirroring the original paper's inference score
// α·R₁ + β·R_both — mapped back to the original space. The second term is
// the adversarially amplified two-pass reconstruction that makes the error
// spike on anomalous inputs.
func (m *Model) Predict(x []float64) (target, pred []float64) {
	if len(x) != m.dim {
		panic(fmt.Sprintf("usad: expected %d values, got %d", m.dim, len(x)))
	}
	z := m.scaler.Transform(x, m.zbuf)
	w1 := m.ae1(z)
	w3 := m.dec2.Predict(m.enc.Predict(w1))
	out := m.outBuf
	for i := range out {
		out[i] = m.Alpha*w1[i] + m.Beta*w3[i]
	}
	return x, m.scaler.Inverse(out, out)
}

// Reconstructions returns (AE₁(x), AE₂(AE₁(x))) in the original space for
// the blended inference score used by the Figure 1 experiment.
func (m *Model) Reconstructions(x []float64) (r1, rBoth []float64) {
	z := m.scaler.Transform(x, m.zbuf)
	w1 := m.ae1(z)
	w3 := m.dec2.Predict(m.enc.Predict(w1))
	return m.scaler.Inverse(w1, nil), m.scaler.Inverse(w3, nil)
}

// Fit refreshes the input scaler and runs one adversarial training epoch
// over the training set, incrementing the schedule counter n, exactly one
// optimizer step per sample per objective.
func (m *Model) Fit(set [][]float64) {
	m.scaler.Fit(set)
	m.epoch++
	n := float64(m.epoch)
	wRec := 1 / n
	wAdv := (n - 1) / n
	for _, x := range set {
		if len(x) != m.dim {
			continue
		}
		z := m.scaler.Transform(x, m.zbuf)
		m.stepAE1(z, wRec, wAdv)
		m.stepAE2(z, wRec, wAdv)
	}
}

// stepAE1 minimizes L_AE1 = wRec·R₁ + wAdv·R_both over (E, D₁). Gradients
// flow through D₂/E on the R_both path but only E and D₁ are stepped. The
// encoder runs two passes, each through its own preallocated context.
func (m *Model) stepAE1(x []float64, wRec, wAdv float64) {
	// Forward: z = E(x); w1 = D1(z); z3 = E(w1); w3 = D2(z3).
	z := m.enc.ForwardCtx(m.encCtxA, x)
	w1 := m.dec1.ForwardCtx(m.dec1Ctx, z)
	z3 := m.enc.ForwardCtx(m.encCtxB, w1)
	w3 := m.dec2.ForwardCtx(m.dec2CtxA, z3)

	// R₁ gradient path.
	_, g1 := nn.MSELoss(w1, x, m.g1)
	for i := range g1 {
		g1[i] *= wRec
	}
	// R_both gradient path (through D₂ and the second E pass into w1).
	_, g3 := nn.MSELoss(w3, x, m.g3)
	for i := range g3 {
		g3[i] *= wAdv
	}
	gz3 := m.dec2.BackwardCtx(m.dec2CtxA, g3)
	gw1FromBoth := m.enc.BackwardCtx(m.encCtxB, gz3)
	// Total gradient into w1 combines both paths, then flows through D₁, E.
	for i := range g1 {
		g1[i] += gw1FromBoth[i]
	}
	gz := m.dec1.BackwardCtx(m.dec1Ctx, g1)
	m.enc.BackwardCtx(m.encCtxA, gz)

	// Step only E and D₁; discard gradients parked on D₂.
	nn.ClipGrads(m.params1, 5)
	m.opt1.Step(m.params1)
	m.dec2.ZeroGrad()
}

// stepAE2 minimizes L_AE2 = wRec·R₂ − wAdv·R_both over (E, D₂). AE₁ output
// is treated as a constant on the R_both path.
func (m *Model) stepAE2(x []float64, wRec, wAdv float64) {
	// Forward: z = E(x); w2 = D2(z); w1 = AE1(x) (constant); z3 = E(w1);
	// w3 = D2(z3).
	z := m.enc.ForwardCtx(m.encCtxA, x)
	w2 := m.dec2.ForwardCtx(m.dec2CtxA, z)
	w1 := m.ae1(x)
	z3 := m.enc.ForwardCtx(m.encCtxB, w1)
	w3 := m.dec2.ForwardCtx(m.dec2CtxB, z3)

	// R₂ path (positive weight).
	_, g2 := nn.MSELoss(w2, x, m.g2)
	for i := range g2 {
		g2[i] *= wRec
	}
	gz := m.dec2.BackwardCtx(m.dec2CtxA, g2)
	m.enc.BackwardCtx(m.encCtxA, gz)

	// R_both path (negative weight: D₂ learns to amplify the error).
	_, g3 := nn.MSELoss(w3, x, m.g3)
	for i := range g3 {
		g3[i] *= -wAdv
	}
	gz3 := m.dec2.BackwardCtx(m.dec2CtxB, g3)
	m.enc.BackwardCtx(m.encCtxB, gz3) // stops here: w1 is constant

	nn.ClipGrads(m.params2, 5)
	m.opt2.Step(m.params2)
	m.dec1.ZeroGrad()
}
