package arima

import (
	"math"
	"math/rand"
	"testing"
)

func TestONSLearnsAR1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, _ := New(Config{Lags: 5, D: 0, Channels: 1})
	ons := NewONS(base, 1, 1)
	series := make([]float64, 600)
	for i := 1; i < len(series); i++ {
		series[i] = 0.8*series[i-1] + 0.1*rng.NormFloat64()
	}
	w := base.WindowRows()
	var set [][]float64
	for i := w; i < len(series); i++ {
		set = append(set, series[i-w:i])
	}
	for epoch := 0; epoch < 10; epoch++ {
		ons.Fit(set)
	}
	var modelErr, persistErr float64
	for i := len(series) - 100; i < len(series); i++ {
		x := series[i-w+1 : i+1]
		target, pred := ons.Predict(x)
		modelErr += (pred[0] - target[0]) * (pred[0] - target[0])
		p := x[len(x)-2]
		persistErr += (p - target[0]) * (p - target[0])
	}
	if modelErr >= persistErr {
		t.Fatalf("ONS ARIMA (%v) should beat persistence (%v)", modelErr, persistErr)
	}
}

func TestONSConvergesFasterThanOGDOnIllConditionedData(t *testing.T) {
	// Differenced lags with wildly different scales: the preconditioned
	// Newton step should reach a lower error in the same number of epochs.
	gen := func() ([][]float64, int) {
		rng := rand.New(rand.NewSource(2))
		m, _ := New(Config{Lags: 4, D: 0, Channels: 1})
		w := m.WindowRows()
		series := make([]float64, 500)
		for i := 4; i < len(series); i++ {
			series[i] = 0.9*series[i-1] - 0.3*series[i-2] + 0.05*rng.NormFloat64()
		}
		var set [][]float64
		for i := w; i < len(series); i++ {
			set = append(set, series[i-w:i])
		}
		return set, w
	}
	evalErr := func(p interface {
		Predict([]float64) ([]float64, []float64)
	}, set [][]float64) float64 {
		var e float64
		for _, x := range set[len(set)-80:] {
			target, pred := p.Predict(x)
			e += (pred[0] - target[0]) * (pred[0] - target[0])
		}
		return e
	}

	set, _ := gen()
	ogd, _ := New(Config{Lags: 4, D: 0, Channels: 1, LR: 0.01})
	for epoch := 0; epoch < 3; epoch++ {
		ogd.Fit(set)
	}
	base, _ := New(Config{Lags: 4, D: 0, Channels: 1})
	ons := NewONS(base, 1, 1)
	for epoch := 0; epoch < 3; epoch++ {
		ons.Fit(set)
	}
	ogdErr := evalErr(ogd, set)
	onsErr := evalErr(ons, set)
	if onsErr > ogdErr {
		t.Fatalf("ONS after 3 epochs (%v) should be at least as good as OGD (%v)", onsErr, ogdErr)
	}
}

func TestONSStaysFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base, _ := New(Config{Lags: 3, D: 1, Channels: 2})
	ons := NewONS(base, 0, 0) // defaults
	w := base.WindowRows()
	set := make([][]float64, 60)
	for i := range set {
		x := make([]float64, w*2)
		for j := range x {
			x[j] = rng.NormFloat64() * 1e3
		}
		set[i] = x
	}
	for epoch := 0; epoch < 5; epoch++ {
		ons.Fit(set)
	}
	for _, g := range base.gamma {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("ONS diverged: %v", base.gamma)
		}
	}
}

func TestONSDefaults(t *testing.T) {
	base, _ := New(Config{Lags: 2, D: 0, Channels: 1})
	ons := NewONS(base, 0, 0)
	if ons.model != base {
		t.Fatal("Model() accessor")
	}
	if ons.eta != 0.1 {
		t.Fatalf("default eta = %v", ons.eta)
	}
	// A⁻¹ starts at (1/ε)·I = I.
	if ons.ainv[0][0] != 1 || ons.ainv[0][1] != 0 {
		t.Fatalf("initial A⁻¹ = %v", ons.ainv)
	}
}
