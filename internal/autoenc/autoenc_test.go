package autoenc

import (
	"math"
	"math/rand"
	"testing"

	"streamad/internal/mat"
	"streamad/internal/nn"
)

func sineSet(rng *rand.Rand, n, dim int, level float64) [][]float64 {
	set := make([][]float64, n)
	for i := range set {
		x := make([]float64, dim)
		for j := range x {
			x[j] = level + 1.5*math.Sin(0.3*float64(i+j)) + 0.2*rng.NormFloat64()
		}
		set[i] = x
	}
	return set
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("expected error for Dim=0")
	}
	m, err := New(Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.dim != 16 {
		t.Fatalf("Dim = %d", m.dim)
	}
}

// reconstructionLoss returns the standardized-space MSE between x and
// its reconstruction.
func reconstructionLoss(m *Model, x []float64) float64 {
	z := m.scaler.Transform(x, nil)
	loss, _ := nn.MSELoss(m.net.Predict(z), z, nil)
	return loss
}

func TestLearnsToReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := 64
	set := sineSet(rng, 200, dim, 2.5)
	m, _ := New(Config{Dim: dim, Seed: 1})
	lossBefore := reconstructionLoss(m, set[0])
	for e := 0; e < 15; e++ {
		m.Fit(set)
	}
	lossAfter := reconstructionLoss(m, set[0])
	if lossAfter >= lossBefore {
		t.Fatalf("training did not reduce loss: %v → %v", lossBefore, lossAfter)
	}
	_, pred := m.Predict(set[10])
	if cos := mat.CosineSimilarity(set[10], pred); cos < 0.95 {
		t.Fatalf("reconstruction cosine = %v, want > 0.95", cos)
	}
}

func TestAnomalyHasHigherError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 64
	set := sineSet(rng, 200, dim, 2.5)
	m, _ := New(Config{Dim: dim, Seed: 2})
	for e := 0; e < 15; e++ {
		m.Fit(set)
	}
	normal := reconstructionLoss(m, set[5])
	anomalous := make([]float64, dim)
	copy(anomalous, set[5])
	for j := dim / 2; j < dim; j++ {
		anomalous[j] += 6 // large offset anomaly
	}
	if reconstructionLoss(m, anomalous) <= normal*2 {
		t.Fatalf("anomalous loss %v should clearly exceed normal %v",
			reconstructionLoss(m, anomalous), normal)
	}
}

func TestScalerAdaptsAtFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 32
	m, _ := New(Config{Dim: dim, Seed: 3})
	// Train on level-100 data (far from origin); without scaling a sigmoid
	// AE could not reconstruct this regime at all.
	set := sineSet(rng, 150, dim, 100)
	for e := 0; e < 15; e++ {
		m.Fit(set)
	}
	_, pred := m.Predict(set[3])
	var maxAbs float64
	for i := range pred {
		d := math.Abs(pred[i] - set[3][i])
		if d > maxAbs {
			maxAbs = d
		}
	}
	if maxAbs > 5 {
		t.Fatalf("reconstruction at level 100 off by %v", maxAbs)
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	m, _ := New(Config{Dim: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestFitSkipsWrongDim(t *testing.T) {
	m, _ := New(Config{Dim: 8, Seed: 4})
	m.Fit([][]float64{{1, 2, 3}}) // silently skipped
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 16
	set := sineSet(rng, 50, dim, 1)
	run := func() float64 {
		m, _ := New(Config{Dim: dim, Seed: 77})
		m.Fit(set)
		_, pred := m.Predict(set[0])
		return pred[0]
	}
	if run() != run() {
		t.Fatal("same seed must give identical models")
	}
}
