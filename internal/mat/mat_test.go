package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	if got := m.Row(1)[2]; got != 5 {
		t.Fatalf("Row(1)[2] = %v, want 5", got)
	}
}

func TestNewDenseDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	y, err := m.MulVec([]float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	m := NewDenseData(1, 2, []float64{6, 12})
	m.Scale(2)
	if m.At(0, 0) != 12 || m.At(0, 1) != 24 {
		t.Fatalf("Scale = %v", m.Data())
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix A = LLᵀ with known solution.
	a := NewDenseData(3, 3, []float64{
		4, 2, 0,
		2, 5, 1,
		0, 1, 3,
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Verify L·Lᵀ = A.
	lt := l.T()
	prod, _ := Mul(l, lt)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(prod.At(i, j), a.At(i, j), 1e-10) {
				t.Fatalf("LLᵀ[%d][%d] = %v, want %v", i, j, prod.At(i, j), a.At(i, j))
			}
		}
	}
	x, err := SolveCholesky(l, []float64{6, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Check A·x = b.
	b, _ := a.MulVec(x)
	for i, v := range []float64{6, 8, 4} {
		if !almostEq(b[i], v, 1e-10) {
			t.Fatalf("Ax[%d] = %v, want %v", i, b[i], v)
		}
	}
}

func TestCholeskySingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 1, 1, 1})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLSExact(t *testing.T) {
	// Overdetermined consistent system: y = 2x + 1.
	a := NewDenseData(4, 2, []float64{
		1, 1,
		1, 2,
		1, 3,
		1, 4,
	})
	b := NewDenseData(4, 1, []float64{3, 5, 7, 9})
	x, err := SolveLSMulti(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x.At(0, 0), 1, 1e-6) || !almostEq(x.At(1, 0), 2, 1e-6) {
		t.Fatalf("SolveLSMulti = %v, want [1 2]", x.Data())
	}
}

func TestSolveLSMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Random well-conditioned system, two right-hand sides.
	a := NewDense(20, 3)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	trueX := NewDenseData(3, 2, []float64{1, -1, 2, 0.5, -3, 4})
	b, _ := Mul(a, trueX)
	x, err := SolveLSMulti(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(x.At(i, j), trueX.At(i, j), 1e-6) {
				t.Fatalf("X[%d][%d] = %v, want %v", i, j, x.At(i, j), trueX.At(i, j))
			}
		}
	}
}

func TestSolveLSRecoversNoisyRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	a := NewDense(n, 2)
	b := NewDense(n, 1)
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b.Set(i, 0, 3+0.5*x+0.01*rng.NormFloat64())
	}
	sol, err := SolveLSMulti(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.At(0, 0), 3, 0.01) || !almostEq(sol.At(1, 0), 0.5, 0.01) {
		t.Fatalf("regression = %v, want ≈[3 0.5]", sol.Data())
	}
}

// TestMulAssociativityProperty checks (A·B)·x == A·(B·x) on random inputs.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewDense(3, 4)
		b := NewDense(4, 2)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		ab, _ := Mul(a, b)
		lhs, _ := ab.MulVec(x)
		bx, _ := b.MulVec(x)
		rhs, _ := a.MulVec(bx)
		for i := range lhs {
			if !almostEq(lhs[i], rhs[i], 1e-9*(1+math.Abs(lhs[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeInvolutionProperty checks (Aᵀ)ᵀ == A.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		a := NewDense(rows, cols)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		tt := a.T().T()
		for i := range a.Data() {
			if a.Data()[i] != tt.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
