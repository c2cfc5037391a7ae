package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// numericGrad computes ∂loss/∂w numerically by central differences.
func numericGrad(w []float64, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := w[i]
	w[i] = orig + h
	lp := loss()
	w[i] = orig - h
	lm := loss()
	w[i] = orig
	return (lp - lm) / (2 * h)
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(2, 2, rng)
	copy(l.Weight.W, []float64{1, 2, 3, 4})
	copy(l.Bias.W, []float64{10, 20})
	y, _ := l.Forward([]float64{1, 1})
	if y[0] != 13 || y[1] != 27 {
		t.Fatalf("Forward = %v, want [13 27]", y)
	}
}

func TestLinearGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(3, 2, rng)
	x := []float64{0.5, -1.2, 2.0}
	target := []float64{1, -1}
	loss := func() float64 {
		y, _ := l.Forward(x)
		lv, _ := MSELoss(y, target, nil)
		return lv
	}
	// Analytic gradients.
	y, ctx := l.Forward(x)
	_, g := MSELoss(y, target, nil)
	gradIn := l.Backward(ctx, g)

	for i := range l.Weight.W {
		num := numericGrad(l.Weight.W, i, loss)
		if !almostEq(l.Weight.G[i], num, 1e-6) {
			t.Fatalf("weight grad[%d] = %v, numeric %v", i, l.Weight.G[i], num)
		}
	}
	for i := range l.Bias.W {
		num := numericGrad(l.Bias.W, i, loss)
		if !almostEq(l.Bias.G[i], num, 1e-6) {
			t.Fatalf("bias grad[%d] = %v, numeric %v", i, l.Bias.G[i], num)
		}
	}
	// Input gradient via perturbing x.
	for i := range x {
		num := numericGrad(x, i, loss)
		if !almostEq(gradIn[i], num, 1e-6) {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, gradIn[i], num)
		}
	}
}

func TestActivationGradientChecks(t *testing.T) {
	acts := []Activation{Sigmoid{}, ReLU{}, Tanh{}, Identity{}}
	x := []float64{0.3, -0.7, 1.5, -2.2}
	target := []float64{0.1, 0.1, 0.1, 0.1}
	for _, act := range acts {
		act := act
		t.Run(act.Name(), func(t *testing.T) {
			loss := func() float64 {
				y, _ := act.Forward(x)
				lv, _ := MSELoss(y, target, nil)
				return lv
			}
			y, ctx := act.Forward(x)
			_, g := MSELoss(y, target, nil)
			gin := act.Backward(ctx, g)
			for i := range x {
				num := numericGrad(x, i, loss)
				if !almostEq(gin[i], num, 1e-6) {
					t.Fatalf("%s input grad[%d] = %v, numeric %v", act.Name(), i, gin[i], num)
				}
			}
		})
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{3, 4, 2}, Tanh{}, Identity{}, rng)
	x := []float64{0.1, -0.4, 0.9}
	target := []float64{0.5, -0.5}
	loss := func() float64 {
		y := m.Predict(x)
		lv, _ := MSELoss(y, target, nil)
		return lv
	}
	y, ctx := m.Forward(x)
	_, g := MSELoss(y, target, nil)
	m.Backward(ctx, g)
	for pi, p := range m.Params() {
		for i := range p.W {
			num := numericGrad(p.W, i, loss)
			if !almostEq(p.G[i], num, 1e-5) {
				t.Fatalf("param %d grad[%d] = %v, numeric %v", pi, i, p.G[i], num)
			}
		}
	}
}

func TestMLPLearnsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 8, 1}, Tanh{}, Identity{}, rng)
	opt := NewAdam(0.01)
	// Learn f(x) = x0*0.5 − x1.
	var finalLoss float64
	for epoch := 0; epoch < 400; epoch++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		target := []float64{0.5*x[0] - x[1]}
		y, ctx := m.Forward(x)
		lv, g := MSELoss(y, target, nil)
		finalLoss = lv
		m.Backward(ctx, g)
		opt.Step(m.Params())
	}
	// Evaluate on fresh points.
	var avg float64
	for i := 0; i < 50; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := m.Predict(x)
		d := y[0] - (0.5*x[0] - x[1])
		avg += d * d
	}
	avg /= 50
	if avg > 0.1 {
		t.Fatalf("MLP failed to learn linear map: eval MSE %v (train %v)", avg, finalLoss)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam(1)
	p.W[0] = 5
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = p.W[0] // minimize ½w²
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W[0]) > 0.05 {
		t.Fatalf("Adam did not converge: w = %v", p.W[0])
	}
}

func TestMSELoss(t *testing.T) {
	loss, grad := MSELoss([]float64{1, 2}, []float64{0, 0}, nil)
	if !almostEq(loss, (1+4)/4.0, 1e-12) {
		t.Fatalf("MSE = %v, want 1.25", loss)
	}
	if !almostEq(grad[0], 0.5, 1e-12) || !almostEq(grad[1], 1, 1e-12) {
		t.Fatalf("grad = %v", grad)
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam(2)
	p.G[0], p.G[1] = 3, 4 // norm 5
	norm := ClipGrads([]*Param{p}, 1)
	if !almostEq(norm, 5, 1e-12) {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if !almostEq(p.G[0], 0.6, 1e-12) || !almostEq(p.G[1], 0.8, 1e-12) {
		t.Fatalf("clipped = %v", p.G)
	}
	// Below the bound: untouched.
	q := NewParam(1)
	q.G[0] = 0.5
	ClipGrads([]*Param{q}, 1)
	if q.G[0] != 0.5 {
		t.Fatal("clip modified a small gradient")
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewParam(1000)
	p.XavierInit(10, 10, rng)
	limit := math.Sqrt(6.0 / 20)
	for _, w := range p.W {
		if w < -limit || w > limit {
			t.Fatalf("weight %v outside ±%v", w, limit)
		}
	}
}

func TestMLPCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP([]int{2, 3, 1}, Sigmoid{}, Identity{}, rng)
	c := m.Clone()
	before := m.Predict([]float64{1, 1})[0]
	c.Layers[0].Weight.W[0] += 10
	after := m.Predict([]float64{1, 1})[0]
	if before != after {
		t.Fatal("clone shares weights with original")
	}
	if m.InDim() != 2 || m.OutDim() != 1 {
		t.Fatalf("dims %d %d", m.InDim(), m.OutDim())
	}
}

func TestScalerRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(8)
		set := make([][]float64, 5+rng.Intn(20))
		for i := range set {
			set[i] = make([]float64, dim)
			for j := range set[i] {
				set[i][j] = rng.NormFloat64()*10 + 5
			}
		}
		s := NewScaler(dim)
		s.Fit(set)
		x := set[0]
		z := s.Transform(x, nil)
		back := s.Inverse(z, nil)
		for i := range x {
			if !almostEq(back[i], x[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScalerStandardizes(t *testing.T) {
	set := [][]float64{{0, 10}, {2, 20}, {4, 30}}
	s := NewScaler(2)
	s.Fit(set)
	var mean0 float64
	for _, x := range set {
		z := s.Transform(x, nil)
		mean0 += z[0]
	}
	if !almostEq(mean0/3, 0, 1e-12) {
		t.Fatalf("standardized mean = %v", mean0/3)
	}
}

func TestScalerConstantDimension(t *testing.T) {
	set := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := NewScaler(2)
	s.Fit(set)
	z := s.Transform([]float64{5, 2}, nil)
	if math.IsNaN(z[0]) || math.IsInf(z[0], 0) {
		t.Fatalf("constant dim transform = %v", z[0])
	}
}

func TestMinMaxRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		set := make([][]float64, 5+rng.Intn(15))
		for i := range set {
			set[i] = make([]float64, dim)
			for j := range set[i] {
				set[i][j] = rng.NormFloat64() * 7
			}
		}
		s := NewMinMaxScaler(dim)
		s.Fit(set)
		x := set[len(set)-1]
		back := s.Inverse(s.Transform(x, nil), nil)
		for i := range x {
			if !almostEq(back[i], x[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxUnitRange(t *testing.T) {
	set := [][]float64{{0}, {5}, {10}}
	s := NewMinMaxScaler(1)
	s.Fit(set)
	if z := s.Transform([]float64{0}, nil); z[0] != 0 {
		t.Fatalf("min → %v, want 0", z[0])
	}
	if z := s.Transform([]float64{10}, nil); z[0] != 1 {
		t.Fatalf("max → %v, want 1", z[0])
	}
	if z := s.Transform([]float64{15}, nil); z[0] != 1.5 {
		t.Fatalf("beyond-range → %v, want 1.5", z[0])
	}
}

func TestScalerCloneIndependent(t *testing.T) {
	s := NewScaler(1)
	s.Fit([][]float64{{1}, {3}})
	c := s.Clone()
	s.Fit([][]float64{{100}, {300}})
	if z := c.Transform([]float64{2}, nil); !almostEq(z[0], 0, 1e-9) {
		t.Fatalf("clone affected by refit: %v", z[0])
	}
	mm := NewMinMaxScaler(1)
	mm.Fit([][]float64{{0}, {2}})
	mc := mm.Clone()
	mm.Fit([][]float64{{0}, {200}})
	if z := mc.Transform([]float64{1}, nil); !almostEq(z[0], 0.5, 1e-9) {
		t.Fatalf("minmax clone affected by refit: %v", z[0])
	}
}

func TestInverseSub(t *testing.T) {
	s := NewScaler(4)
	s.Fit([][]float64{{0, 0, 10, 100}, {2, 2, 30, 300}})
	// Tail moments: mean 20/200, std 10/100.
	out := s.InverseSub([]float64{1, 1}, nil, 2)
	if !almostEq(out[0], 30, 1e-9) || !almostEq(out[1], 300, 1e-9) {
		t.Fatalf("InverseSub = %v", out)
	}
}
