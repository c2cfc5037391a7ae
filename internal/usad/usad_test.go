package usad

import (
	"math"
	"math/rand"
	"testing"

	"streamad/internal/mat"
	"streamad/internal/wire"
)

func sineSet(rng *rand.Rand, n, dim int) [][]float64 {
	set := make([][]float64, n)
	for i := range set {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 2.5 + 1.5*math.Sin(0.3*float64(i+j)) + 0.2*rng.NormFloat64()
		}
		set[i] = x
	}
	return set
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("expected error for Dim=0")
	}
	m, err := New(Config{Dim: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m.dim != 64 {
		t.Fatalf("Dim = %d", m.dim)
	}
	if m.latent < 2 || m.latent >= 64 {
		t.Fatalf("Latent = %d", m.latent)
	}
	if m.epoch != 0 {
		t.Fatalf("fresh Epoch = %d", m.epoch)
	}
}

func TestAdversarialScheduleAdvances(t *testing.T) {
	m, _ := New(Config{Dim: 16, Seed: 1})
	set := sineSet(rand.New(rand.NewSource(1)), 20, 16)
	m.Fit(set)
	m.Fit(set)
	if m.epoch != 2 {
		t.Fatalf("Epoch = %d after two fits", m.epoch)
	}
}

func TestLearnsToReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 64
	set := sineSet(rng, 150, dim)
	m, _ := New(Config{Dim: dim, Seed: 2})
	for e := 0; e < 12; e++ {
		m.Fit(set)
	}
	_, pred := m.Predict(set[7])
	if cos := mat.CosineSimilarity(set[7], pred); cos < 0.85 {
		t.Fatalf("USAD reconstruction cosine = %v, want > 0.85", cos)
	}
}

func TestAnomalyAmplification(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 64
	set := sineSet(rng, 150, dim)
	m, _ := New(Config{Dim: dim, Seed: 3})
	for e := 0; e < 12; e++ {
		m.Fit(set)
	}
	normal := set[9]
	anomalous := make([]float64, dim)
	copy(anomalous, normal)
	for j := 0; j < dim; j++ {
		anomalous[j] += 8
	}
	errOf := func(x []float64) float64 {
		_, pred := m.Predict(x)
		var s float64
		for i := range x {
			d := x[i] - pred[i]
			s += d * d
		}
		return s
	}
	if errOf(anomalous) <= errOf(normal)*3 {
		t.Fatalf("anomalous error %v should dwarf normal %v", errOf(anomalous), errOf(normal))
	}
}

func TestReconstructionsShapes(t *testing.T) {
	m, _ := New(Config{Dim: 32, Seed: 4})
	set := sineSet(rand.New(rand.NewSource(4)), 30, 32)
	m.Fit(set)
	target, pred := m.Predict(set[0])
	if len(target) != 32 || len(pred) != 32 {
		t.Fatalf("shapes %d %d", len(target), len(pred))
	}
	for _, v := range pred {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite reconstruction")
		}
	}
}

// TestCloneIsIndependentSnapshot: a blank model loaded with a trained
// one's checkpoint — how Figure 1 freezes its stale model — carries the
// schedule counter and predicts like the original, and further training
// of the original leaves it untouched.
func TestCloneIsIndependentSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 32
	set := sineSet(rng, 60, dim)
	m, _ := New(Config{Dim: dim, Seed: 5})
	for e := 0; e < 5; e++ {
		m.Fit(set)
	}
	c, _ := New(Config{Dim: dim, Seed: 5})
	blob, err := wire.Append(nil, m)
	if err == nil {
		err = wire.Decode(blob, c)
	}
	if err != nil {
		t.Fatal(err)
	}
	if c.epoch != m.epoch {
		t.Fatal("the copy must carry the schedule counter")
	}
	_, want := m.Predict(set[0])
	want = append([]float64(nil), want...)
	_, before := c.Predict(set[0])
	snapshot := append([]float64(nil), before...)
	for i := range want {
		if snapshot[i] != want[i] {
			t.Fatal("the copy predicts differently from the original")
		}
	}
	// Further training of the original must not affect the copy.
	for e := 0; e < 5; e++ {
		m.Fit(set)
	}
	_, after := c.Predict(set[0])
	for i := range snapshot {
		if snapshot[i] != after[i] {
			t.Fatal("the copy shares parameters with the original")
		}
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	m, _ := New(Config{Dim: 16})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestTrainingStaysFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dim := 24
	m, _ := New(Config{Dim: dim, Seed: 6})
	set := make([][]float64, 80)
	for i := range set {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64() * 100 // wild scale
		}
		set[i] = x
	}
	for e := 0; e < 20; e++ {
		m.Fit(set)
	}
	_, pred := m.Predict(set[0])
	for _, v := range pred {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("USAD diverged on wild-scale data")
		}
	}
}
