// Package nbeats implements the N-BEATS forecaster (Oreshkin et al.) in
// the streaming configuration the paper uses: the model forecasts the
// stream vector s_t from the previous w−1 stream vectors contained in the
// data representation. Each block maps its input through a fully connected
// stack to expansion coefficients θᵇ, θᶠ that are projected onto backcast
// and forecast basis vectors; blocks are chained with the double residual
// topology x_{l+1} = x_l − x̂_l, ŷ = Σ_l ŷ_l.
//
// Two basis families are provided: the learned "generic" basis (default)
// and fixed interpretable bases (polynomial trend, Fourier seasonality)
// for the ablation study.
package nbeats

import (
	"fmt"
	"math"
	"math/rand"

	"streamad/internal/nn"
	"streamad/internal/randstate"
)

// BasisKind selects the expansion basis of a block.
type BasisKind int

const (
	// GenericBasis learns the basis vectors (a plain linear projection).
	GenericBasis BasisKind = iota
	// TrendBasis uses fixed low-order polynomials of time.
	TrendBasis
	// SeasonalityBasis uses fixed Fourier harmonics of time.
	SeasonalityBasis
)

// String returns the basis name.
func (b BasisKind) String() string {
	switch b {
	case GenericBasis:
		return "generic"
	case TrendBasis:
		return "trend"
	case SeasonalityBasis:
		return "seasonality"
	default:
		return fmt.Sprintf("BasisKind(%d)", int(b))
	}
}

// block is one N-BEATS block.
type block struct {
	stack  *nn.MLP     // input → hidden h_l
	thetaB *nn.Linear  // h_l → θᵇ
	thetaF *nn.Linear  // h_l → θᶠ
	basisB *nn.Linear  // θᵇ → backcast (generic) …
	basisF *nn.Linear  // θᶠ → forecast
	fixedB [][]float64 // … or fixed basis matrices (rows = outputs)
	fixedF [][]float64
	kind   BasisKind
}

// blockScratch holds one block's preallocated forward/backward state:
// the FC-stack context, the expansion coefficients (which double as the
// basis layers' backward inputs) and their gradient buffers. h aliases
// the stack context's output.
type blockScratch struct {
	stackCtx         *nn.MLPContext
	h                []float64
	thetaB, thetaF   []float64
	gThetaB, gThetaF []float64
}

// Model is an N-BEATS forecaster over N-channel streams. Inputs are
// standardized with per-dimension moments refreshed at every Fit, and
// forecasts are mapped back to the original space.
type Model struct {
	blocks   []*block
	opt      nn.Optimizer
	scaler   *nn.Scaler
	channels int
	backLen  int     // w−1 rows of history
	inDim    int     // backLen·channels
	lr       float64 // learning rate fixed at construction; snapshots restore onto an identically-configured model

	// Preallocated hot-path scratch (see initScratch): the whole
	// forward/backward pass runs without heap allocations.
	scratch     []*blockScratch
	zbuf        []float64
	xbuf        []float64 // in-place residual x_l
	backBuf     []float64 // current block's backcast
	foreBuf     []float64 // accumulated forecast
	targetBuf   []float64
	gForecast   []float64
	gx, negGx   []float64
	gh, ghB     []float64
	paramsCache []*nn.Param
}

// initScratch builds the reusable buffers; it must run after blocks are
// assembled.
func (m *Model) initScratch() {
	outDim := m.channels
	m.zbuf = make([]float64, m.inDim+outDim)
	m.xbuf = make([]float64, m.inDim)
	m.backBuf = make([]float64, m.inDim)
	m.foreBuf = make([]float64, outDim)
	m.targetBuf = make([]float64, outDim)
	m.gForecast = make([]float64, outDim)
	m.gx = make([]float64, m.inDim)
	m.negGx = make([]float64, m.inDim)
	m.scratch = make([]*blockScratch, len(m.blocks))
	hidden := 0
	for i, b := range m.blocks {
		theta := b.thetaB.Out
		m.scratch[i] = &blockScratch{
			stackCtx: b.stack.NewContext(),
			thetaB:   make([]float64, theta),
			thetaF:   make([]float64, theta),
			gThetaB:  make([]float64, theta),
			gThetaF:  make([]float64, theta),
		}
		if h := b.stack.OutDim(); h > hidden {
			hidden = h
		}
	}
	m.gh = make([]float64, hidden)
	m.ghB = make([]float64, hidden)
	var ps []*nn.Param
	for _, b := range m.blocks {
		ps = append(ps, b.stack.Params()...)
		ps = append(ps, b.thetaB.Params()...)
		ps = append(ps, b.thetaF.Params()...)
		if b.kind == GenericBasis {
			ps = append(ps, b.basisB.Params()...)
			ps = append(ps, b.basisF.Params()...)
		}
	}
	m.paramsCache = ps
}

// Config parameterizes N-BEATS.
type Config struct {
	// Channels is the stream dimensionality N.
	Channels int
	// BackcastRows is the history length in stream rows (w−1 when the data
	// representation holds w rows including the forecast target).
	BackcastRows int
	// Blocks is the number of stacked blocks (default 3).
	Blocks int
	// Hidden is the FC-stack width (default 64).
	Hidden int
	// ThetaDim is the expansion-coefficient length per head (default 16).
	ThetaDim int
	// Basis selects the expansion basis for every block (default generic).
	// For the interpretable configuration pass TrendBasis or
	// SeasonalityBasis; mixed stacks can be built with NewInterpretable.
	Basis BasisKind
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Seed drives weight initialization.
	Seed int64
}

// New returns an initialized N-BEATS model with homogeneous blocks.
func New(cfg Config) (*Model, error) {
	bases := make([]BasisKind, defaultInt(cfg.Blocks, 3))
	for i := range bases {
		bases[i] = cfg.Basis
	}
	return newWithBases(cfg, bases)
}

// NewInterpretable returns the interpretable two-stack configuration of
// the original paper: trend blocks followed by seasonality blocks.
func NewInterpretable(cfg Config) (*Model, error) {
	n := defaultInt(cfg.Blocks, 4)
	if n < 2 {
		n = 2
	}
	bases := make([]BasisKind, n)
	for i := range bases {
		if i < n/2 {
			bases[i] = TrendBasis
		} else {
			bases[i] = SeasonalityBasis
		}
	}
	return newWithBases(cfg, bases)
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func newWithBases(cfg Config, bases []BasisKind) (*Model, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("nbeats: Channels must be positive, got %d", cfg.Channels)
	}
	if cfg.BackcastRows <= 0 {
		return nil, fmt.Errorf("nbeats: BackcastRows must be positive, got %d", cfg.BackcastRows)
	}
	hidden := defaultInt(cfg.Hidden, 64)
	theta := defaultInt(cfg.ThetaDim, 16)
	lr := cfg.LR
	if lr == 0 {
		lr = 1e-3
	}
	rng := rand.New(randstate.NewCountedSource(cfg.Seed))
	inDim := cfg.BackcastRows * cfg.Channels
	outDim := cfg.Channels
	m := &Model{
		opt:      nn.NewAdam(lr),
		scaler:   nn.NewScaler(inDim + outDim),
		channels: cfg.Channels,
		backLen:  cfg.BackcastRows,
		inDim:    inDim,
		lr:       lr,
	}
	for _, kind := range bases {
		b := &block{
			stack:  nn.NewMLP([]int{inDim, hidden, hidden}, nn.ReLU{}, nn.ReLU{}, rng),
			thetaB: nn.NewLinear(hidden, theta, rng),
			thetaF: nn.NewLinear(hidden, theta, rng),
			kind:   kind,
		}
		switch kind {
		case GenericBasis:
			b.basisB = nn.NewLinear(theta, inDim, rng)
			b.basisF = nn.NewLinear(theta, outDim, rng)
		case TrendBasis:
			b.fixedB = polyBasis(cfg.BackcastRows, cfg.Channels, theta, inDim)
			b.fixedF = polyForecastBasis(cfg.Channels, theta, outDim)
		case SeasonalityBasis:
			b.fixedB = fourierBasis(cfg.BackcastRows, cfg.Channels, theta, inDim)
			b.fixedF = polyForecastBasis(cfg.Channels, theta, outDim)
		}
		m.blocks = append(m.blocks, b)
	}
	m.initScratch()
	return m, nil
}

// CloneModel returns a full-fidelity deep copy — weights, Adam moments
// and scaler — for the asynchronous fine-tuning path. Fixed basis
// matrices are immutable and shared.
func (m *Model) CloneModel() any {
	c := &Model{
		scaler:   m.scaler.Clone(),
		channels: m.channels,
		backLen:  m.backLen,
		inDim:    m.inDim,
		lr:       m.lr,
	}
	for _, b := range m.blocks {
		nb := &block{
			stack:  b.stack.Clone(),
			thetaB: b.thetaB.Clone(),
			thetaF: b.thetaF.Clone(),
			fixedB: b.fixedB,
			fixedF: b.fixedF,
			kind:   b.kind,
		}
		if b.kind == GenericBasis {
			nb.basisB = b.basisB.Clone()
			nb.basisF = b.basisF.Clone()
		}
		c.blocks = append(c.blocks, nb)
	}
	c.initScratch()
	if opt := nn.CloneOptimizer(m.opt, m.params(), c.params()); opt != nil {
		c.opt = opt
	} else {
		c.opt = nn.NewAdam(m.lr)
	}
	return c
}

// polyBasis builds fixed polynomial backcast basis rows: output element
// (row r, channel c) gets value t_r^k for coefficient k (channels share
// coefficients, matching the shared-θ design for multivariate streams).
func polyBasis(rows, channels, theta, outDim int) [][]float64 {
	basis := make([][]float64, outDim)
	for r := 0; r < rows; r++ {
		t := float64(r) / float64(rows)
		for c := 0; c < channels; c++ {
			row := make([]float64, theta)
			for k := 0; k < theta; k++ {
				row[k] = math.Pow(t, float64(k%4)) // cap degree at 3
			}
			basis[r*channels+c] = row
		}
	}
	return basis
}

// polyForecastBasis builds the forecast basis at horizon t=1.
func polyForecastBasis(channels, theta, outDim int) [][]float64 {
	basis := make([][]float64, outDim)
	for c := 0; c < channels; c++ {
		row := make([]float64, theta)
		for k := 0; k < theta; k++ {
			row[k] = 1 // t=1 ⇒ t^k = 1
		}
		basis[c] = row
	}
	return basis
}

// fourierBasis builds fixed Fourier backcast basis rows: harmonics of the
// normalized time index, alternating cos/sin.
func fourierBasis(rows, channels, theta, outDim int) [][]float64 {
	basis := make([][]float64, outDim)
	for r := 0; r < rows; r++ {
		t := float64(r) / float64(rows)
		for c := 0; c < channels; c++ {
			row := make([]float64, theta)
			for k := 0; k < theta; k++ {
				h := float64(k/2 + 1)
				if k%2 == 0 {
					row[k] = math.Cos(2 * math.Pi * h * t)
				} else {
					row[k] = math.Sin(2 * math.Pi * h * t)
				}
			}
			basis[r*channels+c] = row
		}
	}
	return basis
}

// Channels returns N.
func (m *Model) Channels() int { return m.channels }

// BackcastRows returns the history length in rows.
func (m *Model) BackcastRows() int { return m.backLen }

// Blocks returns the number of blocks.
func (m *Model) Blocks() int { return len(m.blocks) }

// forward runs the residual stack through the preallocated scratch,
// returning the total forecast (aliasing foreBuf, valid until the next
// forward). Residual inputs live in the stack contexts; the in-place
// x_{l+1} = x_l − x̂_l update runs in xbuf.
func (m *Model) forward(input []float64) []float64 {
	forecast := m.foreBuf
	for i := range forecast {
		forecast[i] = 0
	}
	x := m.xbuf
	copy(x, input)
	// gForecast is free during forward passes, so it doubles as the
	// per-block forecast buffer before accumulation.
	fore := m.gForecast
	for l, b := range m.blocks {
		sc := m.scratch[l]
		sc.h = b.stack.ForwardCtx(sc.stackCtx, x)
		b.thetaB.ForwardInto(sc.h, sc.thetaB)
		b.thetaF.ForwardInto(sc.h, sc.thetaF)
		back := m.backBuf
		switch b.kind {
		case GenericBasis:
			b.basisB.ForwardInto(sc.thetaB, back)
			b.basisF.ForwardInto(sc.thetaF, fore)
		default:
			applyFixedInto(b.fixedB, sc.thetaB, back)
			applyFixedInto(b.fixedF, sc.thetaF, fore)
		}
		for i := range x {
			x[i] -= back[i]
		}
		for i := range forecast {
			forecast[i] += fore[i]
		}
	}
	return forecast
}

// applyFixedInto computes basis·θ for a fixed basis matrix stored
// row-wise, writing into out.
func applyFixedInto(basis [][]float64, theta, out []float64) {
	for i, row := range basis {
		var s float64
		for k, v := range row {
			s += v * theta[k]
		}
		out[i] = s
	}
}

// fixedGradInto backpropagates gradOut through a fixed basis into g:
// ∂L/∂θ = Bᵀ·gradOut.
func fixedGradInto(basis [][]float64, gradOut, g []float64) {
	for i := range g {
		g[i] = 0
	}
	for i, row := range basis {
		go_ := gradOut[i]
		if go_ == 0 {
			continue
		}
		for k, v := range row {
			g[k] += v * go_
		}
	}
}

// Predict implements the framework model contract: given the feature
// vector x ∈ R^{w×N} it forecasts the final row from the preceding w−1
// rows, returning (target = s_t, prediction = ŝ_t).
func (m *Model) Predict(x []float64) (target, pred []float64) {
	rows := len(x) / m.channels
	if rows*m.channels != len(x) || rows != m.backLen+1 {
		panic(fmt.Sprintf("nbeats: expected %d rows of %d channels, got %d values",
			m.backLen+1, m.channels, len(x)))
	}
	z := m.scaler.Transform(x, m.zbuf)
	target = m.targetBuf
	copy(target, x[m.backLen*m.channels:])
	pred = m.forward(z[:m.inDim])
	return target, m.scaler.InverseSub(pred, pred, m.inDim)
}

// Fit refreshes the input scaler and runs one forecasting epoch
// (per-sample Adam steps) over the training set.
func (m *Model) Fit(set [][]float64) {
	m.scaler.Fit(set)
	for _, x := range set {
		if len(x) != m.inDim+m.channels {
			continue
		}
		m.step(m.scaler.Transform(x, m.zbuf))
	}
}

// step trains on one standardized feature vector, allocation-free: the
// block inputs live in the stack contexts, all gradients run through the
// model's preallocated buffers.
func (m *Model) step(x []float64) {
	input := x[:m.inDim]
	target := x[m.inDim:]
	forecast := m.forward(input)
	_, gForecast := nn.MSELoss(forecast, target, m.gForecast)

	// Backward through the residual topology: every block's forecast head
	// receives gForecast; the residual gradient g_x flows backwards through
	// x_{l+1} = x_l − x̂_l, so the block's backcast head receives −g_x and
	// the block's FC stack accumulates both head gradients; g_x for block
	// l−1 is g_x plus the stack's input gradient.
	gx := m.gx // gradient wrt x after the last block: 0
	for i := range gx {
		gx[i] = 0
	}
	for l := len(m.blocks) - 1; l >= 0; l-- {
		b := m.blocks[l]
		sc := m.scratch[l]
		// Forecast head.
		if b.kind == GenericBasis {
			b.basisF.BackwardInto(sc.thetaF, gForecast, sc.gThetaF)
		} else {
			fixedGradInto(b.fixedF, gForecast, sc.gThetaF)
		}
		// Backcast head: x̂_l enters as −g_x.
		negGx := m.negGx
		for i, v := range gx {
			negGx[i] = -v
		}
		if b.kind == GenericBasis {
			b.basisB.BackwardInto(sc.thetaB, negGx, sc.gThetaB)
		} else {
			fixedGradInto(b.fixedB, negGx, sc.gThetaB)
		}
		hidden := b.stack.OutDim()
		gh, ghB := m.gh[:hidden], m.ghB[:hidden]
		b.thetaF.BackwardInto(sc.h, sc.gThetaF, gh)
		b.thetaB.BackwardInto(sc.h, sc.gThetaB, ghB)
		for i := range gh {
			gh[i] += ghB[i]
		}
		gIn := b.stack.BackwardCtx(sc.stackCtx, gh)
		// Residual pass-through: x_{l+1} = x_l − x̂_l contributes g_x to the
		// previous block's input gradient as well.
		for i := range gx {
			gx[i] += gIn[i]
		}
	}
	params := m.params()
	nn.ClipGrads(params, 5)
	m.opt.Step(params)
}

func (m *Model) params() []*nn.Param {
	if m.paramsCache == nil {
		m.initScratch()
	}
	return m.paramsCache
}
