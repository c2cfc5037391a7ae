package drift

import (
	"math/rand"
	"testing"

	"streamad/internal/reservoir"
)

// fillSW fills a sliding window with draws from gen and returns it.
func fillSW(m, dim int, gen func(i int) []float64) *reservoir.SlidingWindow {
	sw := reservoir.NewSlidingWindow(m, dim, dim)
	for i := 0; i < m; i++ {
		sw.Observe(gen(i), 0)
	}
	return sw
}

func gaussGen(rng *rand.Rand, dim int, mean, std float64) func(int) []float64 {
	return func(int) []float64 {
		x := make([]float64, dim)
		for j := range x {
			x[j] = mean + std*rng.NormFloat64()
		}
		return x
	}
}

func TestRegularCadence(t *testing.T) {
	r := NewRegular(5)
	sw := fillSW(3, 1, func(i int) []float64 { return []float64{float64(i)} })
	fires := 0
	for i := 0; i < 20; i++ {
		if r.Observe(reservoir.Update{Kind: reservoir.Replaced}, []float64{0}, sw) {
			fires++
		}
	}
	if fires != 4 {
		t.Fatalf("Regular fired %d times in 20 steps with interval 5, want 4", fires)
	}
	if r.Ops().Cmps == 0 {
		t.Fatal("Regular should count comparisons")
	}
}

func TestRegularPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegular(0)
}

func TestMuSigmaStationaryNoDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := 8
	m := 50
	gen := gaussGen(rng, dim, 5, 1)
	sw := fillSW(m, dim, gen)
	d := NewMuSigmaChange(dim)
	d.Reset(sw)
	fires := 0
	for i := 0; i < 300; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		if d.Observe(u, x, sw) {
			fires++
			d.Reset(sw)
		}
	}
	if fires > 2 {
		t.Fatalf("μ/σ fired %d times on a stationary stream, want ≈0", fires)
	}
}

func TestMuSigmaDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 8
	m := 50
	gen := gaussGen(rng, dim, 0, 1)
	sw := fillSW(m, dim, gen)
	d := NewMuSigmaChange(dim)
	d.Reset(sw)
	// Shift the mean by 3σ; within m steps the running mean crosses σ_i.
	shifted := gaussGen(rng, dim, 3, 1)
	detected := false
	for i := 0; i < 2*m; i++ {
		x := shifted(i)
		u := sw.Observe(x, 0)
		if d.Observe(u, x, sw) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("μ/σ missed a 3σ mean shift")
	}
}

func TestMuSigmaDetectsVarianceExplosion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 4
	m := 60
	gen := gaussGen(rng, dim, 0, 1)
	sw := fillSW(m, dim, gen)
	d := NewMuSigmaChange(dim)
	d.Reset(sw)
	// Variance ×9 ⇒ σ ×3 > factor-2 threshold.
	loud := gaussGen(rng, dim, 0, 3)
	detected := false
	for i := 0; i < 2*m; i++ {
		x := loud(i)
		u := sw.Observe(x, 0)
		if d.Observe(u, x, sw) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("μ/σ missed a variance explosion")
	}
}

func TestMuSigmaRunningMatchesBatchAfterSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 3
	m := 10
	gen := gaussGen(rng, dim, 2, 1)
	sw := fillSW(m, dim, gen)
	d := NewMuSigmaChange(dim)
	d.Reset(sw)
	for i := 0; i < 100; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		d.Observe(u, x, sw)
	}
	// Compare running mean against a batch recomputation.
	items := sw.Items()
	batch := make([]float64, dim)
	for _, it := range items {
		for j, v := range it {
			batch[j] += v
		}
	}
	for j := range batch {
		batch[j] /= float64(len(items))
		diff := batch[j] - d.mean[j]
		if diff < -1e-8 || diff > 1e-8 {
			t.Fatalf("running mean[%d] = %v, batch %v", j, d.mean[j], batch[j])
		}
	}
	if d.elems.StdDev() <= 0 {
		t.Fatal("running σ should be positive")
	}
}

func TestMuSigmaOpsGrow(t *testing.T) {
	d := NewMuSigmaChange(4)
	sw := fillSW(5, 4, func(int) []float64 { return []float64{1, 2, 3, 4} })
	d.Reset(sw)
	x := []float64{1, 2, 3, 4}
	u := sw.Observe(x, 0)
	d.Observe(u, x, sw)
	ops := d.Ops()
	if ops.Adds == 0 || ops.Mults == 0 || ops.Cmps == 0 {
		t.Fatalf("ops not counted: %+v", ops)
	}
}

func TestKSWINStationaryNoDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	channels, w := 3, 5
	dim := channels * w
	m := 40
	gen := gaussGen(rng, dim, 0, 1)
	sw := fillSW(m, dim, gen)
	k := NewKSWIN(channels, w, DefaultAlpha)
	k.Reset(sw)
	fires := 0
	for i := 0; i < 150; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		if k.Observe(u, x, sw) {
			fires++
			k.Reset(sw)
		}
	}
	if fires > 2 {
		t.Fatalf("KSWIN fired %d times on a stationary stream", fires)
	}
}

func TestKSWINDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	channels, w := 3, 5
	dim := channels * w
	m := 40
	gen := gaussGen(rng, dim, 0, 1)
	sw := fillSW(m, dim, gen)
	k := NewKSWIN(channels, w, DefaultAlpha)
	k.Reset(sw)
	shifted := gaussGen(rng, dim, 2.5, 1)
	detected := false
	for i := 0; i < 2*m; i++ {
		x := shifted(i)
		u := sw.Observe(x, 0)
		if k.Observe(u, x, sw) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("KSWIN missed a 2.5σ shift")
	}
}

func TestKSWINCorrectionReducesFalsePositives(t *testing.T) {
	count := func(correct bool, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		channels, w := 2, 4
		dim := channels * w
		m := 30
		gen := gaussGen(rng, dim, 0, 1)
		sw := fillSW(m, dim, gen)
		k := NewKSWIN(channels, w, 0.2) // lax α to surface FPs
		k.SetCorrection(correct)
		k.Reset(sw)
		fires := 0
		for i := 0; i < 400; i++ {
			x := gen(i)
			u := sw.Observe(x, 0)
			if k.Observe(u, x, sw) {
				fires++
				k.Reset(sw)
			}
		}
		return fires
	}
	withCorrection := count(true, 7)
	without := count(false, 7)
	if withCorrection > without {
		t.Fatalf("α/r correction increased false positives: %d > %d", withCorrection, without)
	}
}

func TestKSWINCheckEveryThrottles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	channels, w := 2, 3
	dim := channels * w
	m := 20
	gen := gaussGen(rng, dim, 0, 1)
	sw := fillSW(m, dim, gen)
	k := NewKSWIN(channels, w, DefaultAlpha)
	k.CheckEvery = 10
	k.Reset(sw)
	opsBefore := k.Ops()
	for i := 0; i < 100; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		k.Observe(u, x, sw)
	}
	throttled := k.Ops().Adds - opsBefore.Adds

	k2 := NewKSWIN(channels, w, DefaultAlpha)
	k2.Reset(sw)
	for i := 0; i < 100; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		k2.Observe(u, x, sw)
	}
	full := k2.Ops().Adds
	if throttled*5 > full {
		t.Fatalf("CheckEvery=10 did not reduce work: throttled=%d full=%d", throttled, full)
	}
}

func TestKSWINSkippedUpdateIsFree(t *testing.T) {
	channels, w := 2, 3
	dim := channels * w
	sw := fillSW(5, dim, func(int) []float64 { return make([]float64, dim) })
	k := NewKSWIN(channels, w, DefaultAlpha)
	k.Reset(sw)
	before := k.Ops()
	if k.Observe(reservoir.Update{Kind: reservoir.Skipped}, make([]float64, dim), sw) {
		t.Fatal("skipped update should never signal drift")
	}
	if k.Ops() != before {
		t.Fatal("skipped update should cost nothing")
	}
}

func TestKSWINOpsDominateMuSigma(t *testing.T) {
	rows := []OpCounts{
		PaperFormulaMuSigma(9, 100),
		PaperFormulaKSWIN(9, 100, 500),
	}
	if rows[1].Adds <= rows[0].Adds || rows[1].Cmps <= rows[0].Cmps {
		t.Fatalf("paper formulas must show KSWIN ≫ μ/σ: %+v vs %+v", rows[1], rows[0])
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewMuSigmaChange(0) },
		func() { NewKSWIN(0, 1, 0.01) },
		func() { NewKSWIN(1, 1, 0) },
		func() { NewKSWIN(1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
