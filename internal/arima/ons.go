package arima

import "math"

// ONS upgrades the online ARIMA model's learner from online gradient
// descent to the Online Newton Step of Liu et al. (2016): the update is
// preconditioned by the inverse of the accumulated outer-product matrix
//
//	A_t = Σ g_j·g_jᵀ + ε·I,     γ ← γ − (1/η)·A_t⁻¹·g_t,
//
// which adapts the step size per direction and gives the regret bound the
// paper's source cites. The inverse is maintained incrementally with the
// Sherman–Morrison identity, so each update costs O(lags²).
type ONS struct {
	model *Model
	eta   float64
	ainv  [][]float64 // A_t⁻¹, lags × lags
	// scratch
	av []float64 // Sherman–Morrison update scratch, overwritten per step
	g  []float64 // gradient scratch, overwritten per step
}

// NewONS wraps an online ARIMA model with the Online Newton Step learner.
// eta is the ONS learning rate (default 0.1); epsilon initializes
// A_0 = ε·I (default 1).
func NewONS(model *Model, eta, epsilon float64) *ONS {
	if eta == 0 {
		eta = 0.1
	}
	if epsilon == 0 {
		epsilon = 1
	}
	n := model.lags
	ainv := make([][]float64, n)
	for i := range ainv {
		ainv[i] = make([]float64, n)
		ainv[i][i] = 1 / epsilon
	}
	return &ONS{
		model: model,
		eta:   eta,
		ainv:  ainv,
		av:    make([]float64, n),
		g:     make([]float64, n),
	}
}

// Model returns the wrapped ARIMA model.
func (o *ONS) Model() *Model { return o.model }

// CloneModel returns a full-fidelity deep copy — wrapped model, A⁻¹ and
// learning rate — for the asynchronous fine-tuning path.
func (o *ONS) CloneModel() any {
	n := o.model.lags
	ainv := make([][]float64, n)
	for i := range ainv {
		ainv[i] = append([]float64(nil), o.ainv[i]...)
	}
	return &ONS{
		model: o.model.CloneModel().(*Model),
		eta:   o.eta,
		ainv:  ainv,
		av:    make([]float64, n),
		g:     make([]float64, n),
	}
}

// Predict delegates to the wrapped model.
func (o *ONS) Predict(x []float64) (target, pred []float64) {
	return o.model.Predict(x)
}

// step performs one ONS update on the squared forecast error of the final
// row of x (channels share γ, as in the OGD variant).
func (o *ONS) step(x []float64) {
	m := o.model
	w := len(x) / m.channels
	if w < m.WindowRows() {
		return
	}
	lagDiffs := m.lagDiffs
	for i := range o.g {
		o.g[i] = 0
	}
	if cap(m.series) < w {
		m.series = make([]float64, w)
	}
	for c := 0; c < m.channels; c++ {
		series := m.extract(x, c, m.series[:0])
		actual := series[len(series)-1]
		pred := m.forecastChannel(series, lagDiffs)
		err := pred - actual
		for i, dv := range lagDiffs {
			o.g[i] += err * dv
		}
	}
	inv := 1 / float64(m.channels)
	for i := range o.g {
		o.g[i] *= inv
	}
	// Clip the gradient as in the OGD variant to bound single-step impact.
	var norm float64
	for _, gv := range o.g {
		norm += gv * gv
	}
	norm = math.Sqrt(norm)
	const maxNorm = 10
	if norm > maxNorm {
		scale := maxNorm / norm
		for i := range o.g {
			o.g[i] *= scale
		}
	}

	// Sherman–Morrison: A⁻¹ ← A⁻¹ − (A⁻¹g)(A⁻¹g)ᵀ / (1 + gᵀA⁻¹g).
	n := m.lags
	for i := 0; i < n; i++ {
		var s float64
		row := o.ainv[i]
		for j := 0; j < n; j++ {
			s += row[j] * o.g[j]
		}
		o.av[i] = s
	}
	var denom float64 = 1
	for i := 0; i < n; i++ {
		denom += o.g[i] * o.av[i]
	}
	for i := 0; i < n; i++ {
		avi := o.av[i] / denom
		row := o.ainv[i]
		for j := 0; j < n; j++ {
			row[j] -= avi * o.av[j]
		}
	}
	// γ ← γ − (1/η)·A⁻¹·g.
	for i := 0; i < n; i++ {
		var s float64
		row := o.ainv[i]
		for j := 0; j < n; j++ {
			s += row[j] * o.g[j]
		}
		m.gamma[i] -= s / o.eta
	}
}

// Fit runs one ONS epoch over the training set, satisfying the framework
// model contract.
func (o *ONS) Fit(set [][]float64) {
	for _, x := range set {
		o.step(x)
	}
}
