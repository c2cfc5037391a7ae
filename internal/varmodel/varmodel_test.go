package varmodel

import (
	"math"
	"math/rand"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{P: 0, Channels: 1}); err == nil {
		t.Fatal("expected error for P=0")
	}
	if _, err := New(Config{P: 1, Channels: 0}); err == nil {
		t.Fatal("expected error for Channels=0")
	}
	m, err := New(Config{P: 2, Channels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.p != 2 || m.Channels() != 3 || m.fitted {
		t.Fatal("fresh model state wrong")
	}
}

// genVAR1 generates a VAR(1) series s_t = ν + A·s_{t−1} + ε.
func genVAR1(nu []float64, a [][]float64, steps int, noise float64, rng *rand.Rand) []float64 {
	n := len(nu)
	series := make([]float64, steps*n)
	prev := make([]float64, n)
	for t := 0; t < steps; t++ {
		row := series[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			v := nu[i]
			for j := 0; j < n; j++ {
				v += a[i][j] * prev[j]
			}
			row[i] = v + noise*rng.NormFloat64()
		}
		copy(prev, row)
	}
	return series
}

func TestRecoversVAR1Coefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nu := []float64{1, -0.5}
	a := [][]float64{{0.5, 0.2}, {-0.3, 0.4}}
	series := genVAR1(nu, a, 2000, 0.05, rng)
	m, _ := New(Config{P: 1, Channels: 2})
	if err := m.FitSeries(series); err != nil {
		t.Fatal(err)
	}
	coef := m.coef // 2 × (1 + 2)
	for i := 0; i < 2; i++ {
		if math.Abs(coef.At(i, 0)-nu[i]) > 0.05 {
			t.Fatalf("ν[%d] = %v, want %v", i, coef.At(i, 0), nu[i])
		}
		for j := 0; j < 2; j++ {
			if math.Abs(coef.At(i, 1+j)-a[i][j]) > 0.05 {
				t.Fatalf("A[%d][%d] = %v, want %v", i, j, coef.At(i, 1+j), a[i][j])
			}
		}
	}
}

func TestPredictBeforeFitIsPersistence(t *testing.T) {
	m, _ := New(Config{P: 1, Channels: 2})
	x := []float64{1, 2, 3, 4, 5, 6} // 3 rows × 2 channels
	target, pred := m.Predict(x)
	if target[0] != 5 || target[1] != 6 {
		t.Fatalf("target = %v", target)
	}
	if pred[0] != 3 || pred[1] != 4 {
		t.Fatalf("persistence pred = %v, want [3 4]", pred)
	}
}

func TestPredictAfterFitBeatsPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nu := []float64{0, 0}
	a := [][]float64{{0.1, 0.8}, {0.8, 0.1}} // strong cross-channel coupling
	series := genVAR1(nu, a, 1500, 0.05, rng)
	m, _ := New(Config{P: 1, Channels: 2})
	if err := m.FitSeries(series[:2000]); err != nil {
		t.Fatal(err)
	}
	n := 2
	var modelErr, persistErr float64
	rows := len(series) / n
	for tIdx := rows - 100; tIdx < rows; tIdx++ {
		x := series[(tIdx-2)*n : (tIdx+1)*n] // 3 rows
		target, pred := m.Predict(x)
		prev := x[n : 2*n]
		for c := 0; c < n; c++ {
			modelErr += (pred[c] - target[c]) * (pred[c] - target[c])
			persistErr += (prev[c] - target[c]) * (prev[c] - target[c])
		}
	}
	if modelErr >= persistErr/2 {
		t.Fatalf("VAR (%v) should clearly beat persistence (%v) on coupled channels", modelErr, persistErr)
	}
}

func TestFitFromSlidingWindowSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nu := []float64{0.5}
	a := [][]float64{{0.7}}
	series := genVAR1(nu, a, 500, 0.05, rng)
	n := 1
	w := 10
	// Build overlapping windows exactly like the sliding-window strategy.
	var set [][]float64
	rows := len(series) / n
	for tIdx := w; tIdx <= rows; tIdx++ {
		win := make([]float64, w*n)
		copy(win, series[(tIdx-w)*n:tIdx*n])
		set = append(set, win)
	}
	m, _ := New(Config{P: 2, Channels: 1})
	m.Fit(set)
	if !m.fitted {
		t.Fatal("Fit from sliding-window set failed")
	}
	coef := m.coef
	if math.Abs(coef.At(0, 1)-0.7) > 0.1 {
		t.Fatalf("A1 = %v, want ≈0.7", coef.At(0, 1))
	}
}

func TestFitSeriesErrors(t *testing.T) {
	m, _ := New(Config{P: 2, Channels: 2})
	if err := m.FitSeries([]float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for non-multiple length")
	}
	if err := m.FitSeries([]float64{1, 2, 3, 4}); err == nil {
		t.Fatal("expected error for too few rows")
	}
}

func TestFitEmptySetIsNoop(t *testing.T) {
	m, _ := New(Config{P: 1, Channels: 1})
	m.Fit(nil)
	if m.fitted {
		t.Fatal("empty Fit should not mark model fitted")
	}
}

func TestPredictPanicsOnBadShape(t *testing.T) {
	m, _ := New(Config{P: 3, Channels: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1, 2, 3, 4})
}
