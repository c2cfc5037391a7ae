package drift

import (
	"math/rand"
	"testing"

	"streamad/internal/reservoir"
)

func TestADWINStationaryNoDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewADWIN(0.002)
	dim := 6
	sw := fillSW(10, dim, gaussGen(rng, dim, 0, 1))
	gen := gaussGen(rng, dim, 0, 1)
	fires := 0
	for i := 0; i < 1000; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		if a.Observe(u, x, sw) {
			fires++
		}
	}
	if fires > 3 {
		t.Fatalf("ADWIN fired %d times on a stationary stream", fires)
	}
}

func TestADWINDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewADWIN(0.002)
	dim := 6
	sw := fillSW(10, dim, gaussGen(rng, dim, 0, 1))
	gen := gaussGen(rng, dim, 0, 1)
	for i := 0; i < 200; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		a.Observe(u, x, sw)
	}
	before := len(a.window)
	shifted := gaussGen(rng, dim, 2, 1)
	detected := false
	for i := 0; i < 200; i++ {
		x := shifted(i)
		u := sw.Observe(x, 0)
		if a.Observe(u, x, sw) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("ADWIN missed a 2σ mean shift")
	}
	// The cut must have shrunk the window below its pre-drift length plus
	// the post-drift additions.
	if len(a.window) >= before+200 {
		t.Fatalf("ADWIN did not shrink its window: %d", len(a.window))
	}
}

func TestADWINSkippedIsFree(t *testing.T) {
	a := NewADWIN(0)
	sw := fillSW(3, 2, func(int) []float64 { return []float64{0, 0} })
	before := a.Ops()
	if a.Observe(reservoir.Update{Kind: reservoir.Skipped}, []float64{0, 0}, sw) {
		t.Fatal("skipped update must not drift")
	}
	if a.Ops() != before {
		t.Fatal("skipped update must be free")
	}
}

func TestADWINWindowBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewADWIN(0.002)
	a.MaxWindow = 100
	dim := 2
	sw := fillSW(5, dim, gaussGen(rng, dim, 0, 1))
	gen := gaussGen(rng, dim, 0, 1)
	for i := 0; i < 500; i++ {
		x := gen(i)
		u := sw.Observe(x, 0)
		a.Observe(u, x, sw)
	}
	if len(a.window) > 100 {
		t.Fatalf("window grew to %d > MaxWindow", len(a.window))
	}
}

func TestADWINValidation(t *testing.T) {
	if NewADWIN(0).Delta != 0.002 {
		t.Fatal("default delta")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for delta ≥ 1")
		}
	}()
	NewADWIN(2)
}
