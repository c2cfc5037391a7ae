package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningPush(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Push(x)
	}
	if r.n != len(xs) {
		t.Fatalf("N = %d", r.n)
	}
	if !almostEq(r.mean, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", r.mean)
	}
	if !almostEq(r.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", r.StdDev())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.mean != 0 || r.Var() != 0 || r.StdDev() != 0 {
		t.Fatal("empty Running should report zeros")
	}
}

func TestRunningReplaceOnEmptyPushes(t *testing.T) {
	var r Running
	r.Replace(0, 5)
	if r.n != 1 || r.mean != 5 {
		t.Fatalf("Replace on empty: N=%d mean=%v", r.n, r.mean)
	}
}

// TestRunningReplaceProperty: a sequence of swaps must match a batch
// recomputation of the same multiset.
func TestRunningReplaceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		vals := make([]float64, n)
		var r Running
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
			r.Push(vals[i])
		}
		// Perform random swaps.
		for k := 0; k < 50; k++ {
			i := rng.Intn(n)
			nv := rng.NormFloat64() * 10
			r.Replace(vals[i], nv)
			vals[i] = nv
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(n)
		var variance float64
		for _, v := range vals {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(n)
		return almostEq(r.mean, mean, 1e-8) && almostEq(r.Var(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Push(3)
	r.Reset()
	if r.n != 0 || r.mean != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestQFunc(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.05},
		{-1.6448536269514722, 0.95},
	}
	for _, c := range cases {
		if got := QFunc(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Q(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestKSSameDistributionNoReject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	sort.Float64s(a)
	sort.Float64s(b)
	res := KSTestSorted(a, b, 0.001)
	if res.Reject {
		t.Fatalf("same-distribution KS rejected: stat=%v thr=%v", res.Statistic, res.Threshold)
	}
}

func TestKSShiftedDistributionRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 2
	}
	sort.Float64s(a)
	sort.Float64s(b)
	res := KSTestSorted(a, b, 0.01)
	if !res.Reject {
		t.Fatalf("shifted KS did not reject: stat=%v thr=%v", res.Statistic, res.Threshold)
	}
	if res.Statistic < 0.5 {
		t.Fatalf("2σ shift should give large statistic, got %v", res.Statistic)
	}
}

func TestKSEmptyInputs(t *testing.T) {
	res := KSTestSorted(nil, []float64{1}, 0.05)
	if res.Reject {
		t.Fatal("empty sample must not reject")
	}
}

func TestKSStatisticExact(t *testing.T) {
	// Disjoint supports: statistic must be 1 and (with enough samples for
	// the threshold to drop below 1) the test must reject.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29}
	res := KSTestSorted(a, b, 0.05)
	if !almostEq(res.Statistic, 1, 1e-12) {
		t.Fatalf("disjoint KS statistic = %v, want 1", res.Statistic)
	}
	if !res.Reject {
		t.Fatal("disjoint supports must reject")
	}
}

func TestKSCritical(t *testing.T) {
	// c(α) = sqrt(ln(2/α)/2); at α=0.05: sqrt(ln40/2) ≈ 1.3581.
	if got := KSCritical(0.05); !almostEq(got, 1.3581, 1e-4) {
		t.Fatalf("KSCritical(0.05) = %v, want ≈1.3581", got)
	}
}

// TestKSStatisticSymmetryProperty: KS(a,b) == KS(b,a).
func TestKSStatisticSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		m := 5 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64() + rng.Float64()
		}
		sort.Float64s(a)
		sort.Float64s(b)
		r1 := KSTestSorted(a, b, 0.05)
		r2 := KSTestSorted(b, a, 0.05)
		return almostEq(r1.Statistic, r2.Statistic, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
