package arima

import (
	"math"
	"math/rand"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Lags: 0, Channels: 1},
		{Lags: 2, D: -1, Channels: 1},
		{Lags: 2, D: 5, Channels: 1},
		{Lags: 2, Channels: 0},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
	m, err := New(Config{Lags: 3, D: 1, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.WindowRows() != 5 {
		t.Fatalf("WindowRows = %d, want 5 (3 lags + 1 diff + 1 target)", m.WindowRows())
	}
	if m.Channels() != 2 {
		t.Fatalf("Channels = %d", m.Channels())
	}
}

func TestSignedBinomial(t *testing.T) {
	cases := []struct {
		d    int
		want []float64
	}{
		{0, []float64{1}},
		{1, []float64{1, -1}},
		{2, []float64{1, -2, 1}},
		{3, []float64{1, -3, 3, -1}},
	}
	for _, c := range cases {
		got := signedBinomial(c.d)
		if len(got) != len(c.want) {
			t.Fatalf("d=%d: %v", c.d, got)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("d=%d: %v, want %v", c.d, got, c.want)
			}
		}
	}
}

// window builds a feature vector of the last rows of series (1 channel).
func window1(series []float64, rows int) []float64 {
	return series[len(series)-rows:]
}

func TestUntrainedIsPersistenceForecaster(t *testing.T) {
	// γ = [1, 0, …] with d=1: forecast = ∇s_{t−1} + s_{t−1} = 2s_{t−1}−s_{t−2};
	// for a constant series that equals the constant.
	m, _ := New(Config{Lags: 3, D: 1, Channels: 1})
	series := []float64{5, 5, 5, 5, 5, 5}
	target, pred := m.Predict(window1(series, m.WindowRows()))
	if target[0] != 5 {
		t.Fatalf("target = %v", target)
	}
	if math.Abs(pred[0]-5) > 1e-12 {
		t.Fatalf("persistence forecast on constant series = %v, want 5", pred[0])
	}
}

func TestLearnsLinearTrend(t *testing.T) {
	// s_t = 2t: with d=1 the differenced series is constant 2; any γ
	// summing to 1 forecasts exactly. Training should reduce error to ~0.
	m, _ := New(Config{Lags: 4, D: 1, Channels: 1, LR: 0.05})
	series := make([]float64, 200)
	for i := range series {
		series[i] = 2 * float64(i)
	}
	w := m.WindowRows()
	var set [][]float64
	for i := w; i < len(series); i++ {
		set = append(set, series[i-w:i])
	}
	for epoch := 0; epoch < 20; epoch++ {
		m.Fit(set)
	}
	target, pred := m.Predict(series[len(series)-w:])
	if math.Abs(pred[0]-target[0]) > 0.2 {
		t.Fatalf("trend forecast = %v, want %v", pred[0], target[0])
	}
}

func TestLearnsAR1Process(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// AR(1): s_t = 0.8·s_{t−1} + ε.
	m, _ := New(Config{Lags: 5, D: 0, Channels: 1, LR: 0.02})
	series := make([]float64, 600)
	for i := 1; i < len(series); i++ {
		series[i] = 0.8*series[i-1] + 0.1*rng.NormFloat64()
	}
	w := m.WindowRows()
	var set [][]float64
	for i := w; i < len(series); i++ {
		set = append(set, series[i-w:i])
	}
	for epoch := 0; epoch < 10; epoch++ {
		m.Fit(set)
	}
	// γ should approximate [0.8, 0, 0, 0, 0].
	g := m.gamma
	if math.Abs(g[0]-0.8) > 0.25 {
		t.Fatalf("γ[0] = %v, want ≈0.8 (γ=%v)", g[0], g)
	}
	// Forecast error should beat persistence on average.
	var modelErr, persistErr float64
	cnt := 0
	for i := len(series) - 100; i < len(series); i++ {
		x := series[i-w+1 : i+1]
		target, pred := m.Predict(x)
		modelErr += (pred[0] - target[0]) * (pred[0] - target[0])
		p := x[len(x)-2]
		persistErr += (p - target[0]) * (p - target[0])
		cnt++
	}
	if modelErr >= persistErr {
		t.Fatalf("trained ARIMA (%v) should beat persistence (%v)", modelErr/float64(cnt), persistErr/float64(cnt))
	}
}

func TestMultivariateSharedCoefficients(t *testing.T) {
	// Two identical channels: prediction per channel must be identical.
	m, _ := New(Config{Lags: 3, D: 1, Channels: 2})
	w := m.WindowRows()
	x := make([]float64, w*2)
	for r := 0; r < w; r++ {
		v := math.Sin(0.3 * float64(r))
		x[r*2] = v
		x[r*2+1] = v
	}
	target, pred := m.Predict(x)
	if target[0] != target[1] || math.Abs(pred[0]-pred[1]) > 1e-12 {
		t.Fatalf("identical channels must give identical forecasts: %v %v", pred[0], pred[1])
	}
}

func TestFitIsStableOnBurstyData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := New(Config{Lags: 4, D: 1, Channels: 1, LR: 0.1})
	w := m.WindowRows()
	var set [][]float64
	for i := 0; i < 100; i++ {
		x := make([]float64, w)
		for j := range x {
			x[j] = rng.NormFloat64() * 1e3 // violent data
		}
		set = append(set, x)
	}
	for epoch := 0; epoch < 5; epoch++ {
		m.Fit(set)
	}
	for _, g := range m.gamma {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("γ diverged: %v", m.gamma)
		}
	}
}

func TestPredictPanicsOnShortWindow(t *testing.T) {
	m, _ := New(Config{Lags: 5, D: 1, Channels: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1, 2, 3})
}

func TestFitSkipsShortVectors(t *testing.T) {
	m, _ := New(Config{Lags: 5, D: 1, Channels: 1})
	before := append([]float64(nil), m.gamma...)
	m.Fit([][]float64{{1, 2}})
	for i, g := range m.gamma {
		if g != before[i] {
			t.Fatal("short vector should not trigger an update")
		}
	}
}
