package score

import (
	"math"
	"math/rand"
	"testing"

	"streamad/internal/window"
)

// TestConformalPValueExact checks the p-value formula on a hand-built
// calibration window.
func TestConformalPValueExact(t *testing.T) {
	c := NewConformal(8, 0.2)
	for _, v := range []float64{1, 2, 3, 4} {
		c.Observe(v)
	}
	cases := []struct {
		f    float64
		want float64 // (#{y ≥ f}+1)/(n+1), n = 4
	}{
		{5, 1.0 / 5},
		{4, 2.0 / 5},
		{2.5, 3.0 / 5},
		{0, 5.0 / 5},
		{math.NaN(), 1},
		{math.Inf(1), 1},
	}
	for _, tc := range cases {
		if got := c.PValue(tc.f); got != tc.want {
			t.Errorf("PValue(%v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

// TestConformalEmptyWindow checks the young-window behavior: min p-value
// is 1, nothing can alert, threshold is +Inf.
func TestConformalEmptyWindow(t *testing.T) {
	c := NewConformal(16, 0.1)
	if p := c.PValue(100); p != 1 {
		t.Fatalf("empty-window PValue = %v, want 1", p)
	}
	if !math.IsInf(c.Threshold(), 1) {
		t.Fatalf("empty-window Threshold = %v, want +Inf", c.Threshold())
	}
	if c.Alert(100) {
		t.Fatal("empty-window Alert fired")
	}
}

// TestConformalFalsePositiveRate feeds exchangeable scores and checks the
// alert rate lands near ε.
func TestConformalFalsePositiveRate(t *testing.T) {
	const (
		eps   = 0.05
		total = 20000
	)
	c := NewConformal(200, eps)
	rng := rand.New(rand.NewSource(17))
	alerts, decisions := 0, 0
	for i := 0; i < total; i++ {
		f := rng.NormFloat64()
		if c.N() >= 100 { // count only once the window is meaningful
			decisions++
			if c.PValue(f) <= eps {
				alerts++
			}
		}
		c.Observe(f)
	}
	rate := float64(alerts) / float64(decisions)
	if rate < eps/2 || rate > eps*2 {
		t.Fatalf("false-positive rate %v not within [%v, %v]", rate, eps/2, eps*2)
	}
}

// TestConformalThresholdConsistency checks Alert(f) ⇔ f > Threshold() on
// a filled window (modulo the boundary tie, which Threshold includes).
func TestConformalThresholdConsistency(t *testing.T) {
	c := NewConformal(99, 0.1)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 99; i++ {
		c.Observe(rng.Float64())
	}
	thr := c.Threshold()
	if math.IsInf(thr, 0) {
		t.Fatalf("filled-window Threshold = %v", thr)
	}
	for i := 0; i < 500; i++ {
		f := rng.Float64() * 1.2
		alert := c.PValue(f) <= c.Epsilon()
		if f > thr && !alert {
			t.Fatalf("f=%v above threshold %v but p=%v > eps", f, thr, c.PValue(f))
		}
		if f < thr && alert {
			t.Fatalf("f=%v below threshold %v but p=%v ≤ eps", f, thr, c.PValue(f))
		}
	}
}

// TestConformalNonFiniteDropped checks non-finite observations never
// enter the window.
func TestConformalNonFiniteDropped(t *testing.T) {
	c := NewConformal(8, 0.25)
	c.Observe(math.NaN())
	c.Observe(math.Inf(1))
	c.Observe(math.Inf(-1))
	if c.N() != 0 {
		t.Fatalf("N() = %d after non-finite observes, want 0", c.N())
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", c.Dropped())
	}
	c.Observe(1)
	if c.N() != 1 {
		t.Fatalf("N() = %d, want 1", c.N())
	}
}

// TestConformalThresholderContract checks Conformal satisfies the
// Thresholder interface used by the alerting layer.
func TestConformalThresholderContract(t *testing.T) {
	var thr Thresholder = NewConformal(64, 0.1)
	if thr.Name() != "conformal" {
		t.Fatalf("Name() = %q", thr.Name())
	}
}

// TestConformalMarshalRoundTrip checks a restored rule behaves
// identically to the original.
func TestConformalMarshalRoundTrip(t *testing.T) {
	c := NewConformal(32, 0.1)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 50; i++ {
		c.Observe(rng.NormFloat64())
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	twin := NewConformal(32, 0.1)
	if err := twin.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if twin.N() != c.N() {
		t.Fatalf("restored N() = %d, want %d", twin.N(), c.N())
	}
	if twin.Threshold() != c.Threshold() {
		t.Fatalf("restored Threshold() = %v, want %v", twin.Threshold(), c.Threshold())
	}
	for i := 0; i < 100; i++ {
		f := rng.NormFloat64()
		if twin.PValue(f) != c.PValue(f) {
			t.Fatalf("restored PValue(%v) = %v, want %v", f, twin.PValue(f), c.PValue(f))
		}
	}
	// Mismatched epsilon is rejected.
	other := NewConformal(32, 0.2)
	if err := other.UnmarshalBinary(blob); err == nil {
		t.Fatal("UnmarshalBinary accepted a snapshot with different eps")
	}
}

// TestConformalDroppedSurvivesRestore pins the diagnostic counter into
// the snapshot: a restored rule must report the same Dropped() count,
// not silently reset to zero.
func TestConformalDroppedSurvivesRestore(t *testing.T) {
	c := NewConformal(16, 0.1)
	c.Observe(1.5)
	c.Observe(math.NaN())
	c.Observe(math.Inf(1))
	c.Observe(2.5)
	if c.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", c.Dropped())
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	twin := NewConformal(16, 0.1)
	if err := twin.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if twin.Dropped() != c.Dropped() {
		t.Fatalf("restored Dropped() = %d, want %d", twin.Dropped(), c.Dropped())
	}
}

// TestZeroAllocScorers pins the per-step scoring kernels and the ring
// they are built on, once their windows are full.
func TestZeroAllocScorers(t *testing.T) {
	avg, al := NewAverage(8), NewAnomalyLikelihood(8, 2)
	conf := NewConformal(16, 0.1)
	ring := window.NewRing(8)
	dst := make([]float64, 8)
	for i := 0; i < 32; i++ {
		f := float64(i%5) / 5
		avg.Score(f)
		al.Score(f)
		conf.Observe(f)
		ring.Push(f)
	}
	target, pred := []float64{1, 2, 3}, []float64{1, 2, 2.5}
	for name, run := range map[string]func(){
		"raw":       func() { Raw{}.Score(0.3) },
		"avg":       func() { avg.Score(0.3) },
		"al":        func() { al.Score(0.3) },
		"cosine":    func() { Cosine{}.Measure(target, pred) },
		"conformal": func() { conf.Observe(conf.PValue(0.3)) },
		"ring":      func() { ring.CopyInto(dst) },
	} {
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}
