// Package nbeats implements the N-BEATS forecaster (Oreshkin et al.) in
// the streaming configuration the paper uses: the model forecasts the
// stream vector s_t from the previous w−1 stream vectors contained in the
// data representation. Each block maps its input through a fully connected
// stack to expansion coefficients θᵇ, θᶠ that are projected onto backcast
// and forecast basis vectors; blocks are chained with the double residual
// topology x_{l+1} = x_l − x̂_l, ŷ = Σ_l ŷ_l.
// The basis is the learned "generic" one: a plain linear projection.
package nbeats

import (
	"fmt"
	"math/rand"

	"streamad/internal/nn"
	"streamad/internal/randstate"
)

// block is one N-BEATS block.
type block struct {
	stack  *nn.MLP    // input → hidden h_l
	thetaB *nn.Linear // h_l → θᵇ
	thetaF *nn.Linear // h_l → θᶠ
	basisB *nn.Linear // θᵇ → backcast
	basisF *nn.Linear // θᶠ → forecast
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
	opt      *nn.Adam
	scaler   *nn.Scaler
	channels int
	backLen  int // w−1 rows of history
	inDim    int // backLen·channels

	// Preallocated hot-path scratch (see initScratch): the whole
	// forward/backward pass runs without heap allocations.
	scratch     []*blockScratch
	zbuf        []float64
	xbuf        []float64 // in-place residual x_l
	backBuf     []float64 // current block's backcast
	foreBuf     []float64 // accumulated forecast
	slab        []float64 // Predict's scratch, BatchScratch(1) long
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
	m.slab = make([]float64, m.BatchScratch(1))
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
		ps = append(ps, b.basisB.Params()...)
		ps = append(ps, b.basisF.Params()...)
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
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Seed drives weight initialization.
	Seed int64
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// New returns an initialized N-BEATS model.
func New(cfg Config) (*Model, error) {
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
	}
	for range defaultInt(cfg.Blocks, 3) {
		m.blocks = append(m.blocks, &block{
			stack:  nn.NewMLP([]int{inDim, hidden, hidden}, nn.ReLU{}, nn.ReLU{}, rng),
			thetaB: nn.NewLinear(hidden, theta, rng),
			thetaF: nn.NewLinear(hidden, theta, rng),
			basisB: nn.NewLinear(theta, inDim, rng),
			basisF: nn.NewLinear(theta, outDim, rng),
		})
	}
	m.initScratch()
	return m, nil
}

// Channels returns N.
func (m *Model) Channels() int { return m.channels }

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
		b.basisB.ForwardInto(sc.thetaB, back)
		b.basisF.ForwardInto(sc.thetaF, fore)
		for i := range x {
			x[i] -= back[i]
		}
		for i := range forecast {
			forecast[i] += fore[i]
		}
	}
	return forecast
}

// Predict implements the framework model contract: given the feature
// vector x ∈ R^{w×N} it forecasts the final row from the preceding w−1
// rows, returning (target = s_t, prediction = ŝ_t). It is PredictBatch of
// one window, in the model's own scratch.
func (m *Model) Predict(x []float64) (target, pred []float64) { return m.PredictBatch(x, 1, m.slab) }

// BatchScratch is the scratch PredictBatch needs for batch windows: the
// slabs listed in PredictBatch and one block's FC stack, which the
// blocks take in turn.
func (m *Model) BatchScratch(batch int) int {
	return (2*m.inDim+2*m.blocks[0].thetaB.Out+4*m.channels)*batch + m.blocks[0].stack.SlabLen(batch)
}

// PredictBatch forecasts batch windows laid end to end in xs (window s at
// xs[s*(Config.BackcastRows+1)*Channels():]) with one pass per layer, running
// forward's residual stack on feature-major slabs in scratch
// (BatchScratch(batch) long). Targets and predictions are the windows'
// final rows laid end to end in scratch, each bit-identical to that
// window's Predict.
func (m *Model) PredictBatch(xs []float64, batch int, scratch []float64) (targets, preds []float64) {
	d, ch, theta := m.inDim+m.channels, m.channels, m.blocks[0].thetaB.Out
	if len(xs) != d*batch {
		panic(fmt.Sprintf("nbeats: expected %d rows of %d channels, got %d values",
			m.backLen+1, ch, len(xs)))
	}
	// Feature-major: the residual and a block's backcast, its θᵇ and θᶠ,
	// its forecast and the total; then the targets and predictions,
	// window-major, and the stack's slab.
	var sl [8][]float64
	for i, n := range [8]int{m.inDim, m.inDim, theta, theta, ch, ch, ch, ch} {
		sl[i], scratch = scratch[:n*batch], scratch[n*batch:]
	}
	x, back, thetaB, thetaF, fore, forecast, targets, preds := sl[0], sl[1], sl[2], sl[3], sl[4], sl[5], sl[6], sl[7]

	m.scaler.TransformBatch(xs, batch, x)
	for s := 0; s < batch; s++ {
		copy(targets[s*ch:][:ch], xs[s*d+m.inDim:])
	}
	for i := range forecast {
		forecast[i] = 0
	}
	for _, b := range m.blocks {
		h := b.stack.PredictBatch(x, batch, scratch)
		b.thetaB.ForwardBatchInto(h, thetaB, batch)
		b.thetaF.ForwardBatchInto(h, thetaF, batch)
		b.basisB.ForwardBatchInto(thetaB, back, batch)
		b.basisF.ForwardBatchInto(thetaF, fore, batch)
		for i := range x {
			x[i] -= back[i]
		}
		for i := range forecast {
			forecast[i] += fore[i]
		}
	}
	m.scaler.InverseBatch(forecast, batch, preds, m.inDim)
	return targets, preds
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
		b.basisF.BackwardInto(sc.thetaF, gForecast, sc.gThetaF)
		// Backcast head: x̂_l enters as −g_x.
		negGx := m.negGx
		for i, v := range gx {
			negGx[i] = -v
		}
		b.basisB.BackwardInto(sc.thetaB, negGx, sc.gThetaB)
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
