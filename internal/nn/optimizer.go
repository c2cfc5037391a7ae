package nn

import "math"

// Optimizer updates parameters from their accumulated gradients. Step also
// clears the gradients it consumed.
type Optimizer interface {
	Step(params []*Param)
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
	m     map[*Param][]float64
	v     map[*Param][]float64
}

// NewAdam returns an Adam optimizer with standard hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64)}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	c1, c2 := 1-b1, 1-b2
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.W))
			a.v[p] = v
		}
		// The loop is bound by its three divisions and the square root;
		// each stays where it is — a hoisted reciprocal would round
		// differently. adamPairs runs the same expression two elements
		// per instruction; equal lengths let the compiler drop the bounds
		// checks on the rest.
		w := p.W
		grad, m, v := p.G[:len(w)], m[:len(w)], v[:len(w)]
		k := adamPairs(w, grad, m, v, b1, c1, b2, c2, bc1, bc2, lr, eps)
		w = w[k:]
		grad, m, v = grad[k:][:len(w)], m[k:][:len(w)], v[k:][:len(w)]
		for i := range w {
			g := grad[i]
			mi := b1*m[i] + c1*g
			vi := b2*v[i] + c2*g*g
			m[i], v[i] = mi, vi
			mhat := mi / bc1
			vhat := vi / bc2
			w[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
			grad[i] = 0
		}
	}
}

// MSELoss returns ½·mean((pred−target)²) and writes ∂L/∂pred into grad
// (allocated if nil). The ½ keeps the gradient simply (pred−target)/n.
func MSELoss(pred, target, grad []float64) (float64, []float64) {
	if len(pred) != len(target) {
		panic("nn: MSELoss length mismatch")
	}
	if grad == nil {
		grad = make([]float64, len(pred))
	}
	n := float64(len(pred))
	var loss float64
	for i, p := range pred {
		d := p - target[i]
		loss += d * d
		grad[i] = d / n
	}
	return loss / (2 * n), grad
}
