package knn

import (
	"math"
	"math/rand"
	"testing"
)

func gauss(rng *rand.Rand, n, dim int, mean float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, dim)
		for j := range x {
			x[j] = mean + rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("expected error for Dim=0")
	}
	if _, err := New(Config{Dim: 2, K: -1}); err == nil {
		t.Fatal("expected error for negative K")
	}
	m, err := New(Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.k != 5 || m.Fitted() {
		t.Fatalf("defaults wrong: K=%d fitted=%v", m.k, m.Fitted())
	}
}

func TestUnfittedIsNeutral(t *testing.T) {
	m, _ := New(Config{Dim: 2})
	if s := m.NonconformityScore([]float64{1, 2}); s != 0.5 {
		t.Fatalf("unfitted = %v, want 0.5", s)
	}
}

func TestOutlierScoresHigher(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := New(Config{Dim: 4, K: 3})
	m.Fit(gauss(rng, 200, 4, 0))
	inlier := m.NonconformityScore([]float64{0.1, -0.2, 0.3, 0})
	outlier := m.NonconformityScore([]float64{8, 8, 8, 8})
	if outlier <= inlier {
		t.Fatalf("outlier %v should exceed inlier %v", outlier, inlier)
	}
	if outlier < 0.9 {
		t.Fatalf("far outlier = %v, want ≈1", outlier)
	}
	if inlier > 0.7 {
		t.Fatalf("inlier = %v, want near the 0.5 self-scale", inlier)
	}
}

func TestScoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := New(Config{Dim: 3})
	m.Fit(gauss(rng, 100, 3, 5))
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64() * 20, rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		s := m.NonconformityScore(x)
		if s < 0 || s >= 1 {
			t.Fatalf("score out of [0,1): %v", s)
		}
	}
}

func TestFitRefreshesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := New(Config{Dim: 2, K: 2})
	m.Fit(gauss(rng, 100, 2, 0))
	before := m.NonconformityScore([]float64{10, 10})
	// Retrain around the former outlier's location.
	m.Fit(gauss(rng, 100, 2, 10))
	after := m.NonconformityScore([]float64{10, 10})
	if after >= before {
		t.Fatalf("refit should normalize the new regime: %v → %v", before, after)
	}
}

func TestFitCopiesVectors(t *testing.T) {
	m, _ := New(Config{Dim: 2, K: 1})
	x := []float64{1, 1}
	m.Fit([][]float64{x, {2, 2}, {3, 3}})
	x[0] = 99
	// The reference must still contain the original (1,1).
	if s := m.NonconformityScore([]float64{1, 1}); s > 0.4 {
		t.Fatalf("reference was aliased to caller storage (score %v)", s)
	}
}

func TestFitSkipsWrongDims(t *testing.T) {
	m, _ := New(Config{Dim: 3})
	m.Fit([][]float64{{1, 2}})
	if m.Fitted() {
		t.Fatal("wrong-dim vectors must be ignored")
	}
}

func TestDegenerateIdenticalSet(t *testing.T) {
	m, _ := New(Config{Dim: 2, K: 3})
	set := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	m.Fit(set)
	s := m.NonconformityScore([]float64{1, 1})
	if s != s || s < 0 || s >= 1 {
		t.Fatalf("degenerate set score = %v", s)
	}
	if far := m.NonconformityScore([]float64{100, 100}); far < 0.99 {
		t.Fatalf("far point on degenerate set = %v, want ≈1", far)
	}
}

func TestKLargerThanSet(t *testing.T) {
	m, _ := New(Config{Dim: 1, K: 10})
	m.Fit([][]float64{{0}, {1}, {2}})
	s := m.NonconformityScore([]float64{1})
	if s < 0 || s >= 1 {
		t.Fatalf("k>set score = %v", s)
	}
}

// TestFillPhaseOrdering guards the binary-insert fill path: with k larger
// than the scanned prefix, the fill-phase insertions alone must produce
// the same neighbor set the steady-state path would.
func TestFillPhaseOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := gauss(rng, 40, 4, 0)
	m, _ := New(Config{Dim: 4, K: 8})
	m.Fit(set)
	q := []float64{0.1, -0.2, 0.3, 0}
	got := m.knnDistance(q, -1)
	// Brute-force reference: mean of the 8 smallest distances.
	var ds []float64
	for _, r := range m.ref {
		ds = append(ds, dist2(q, r))
	}
	for i := range ds {
		for j := i + 1; j < len(ds); j++ {
			if ds[j] < ds[i] {
				ds[i], ds[j] = ds[j], ds[i]
			}
		}
	}
	var want float64
	for i := 0; i < 8; i++ {
		want += math.Sqrt(ds[i])
	}
	want /= 8
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("knnDistance = %v, brute force = %v", got, want)
	}
}

// BenchmarkFit is the regression benchmark for the fill-phase re-sort fix:
// Fit's leave-one-out scale pass dominates and exercises knnDistance on
// every sampled member.
func BenchmarkFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	set := gauss(rng, 256, 24, 0)
	m, _ := New(Config{Dim: 24, K: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fit(set)
	}
}

// BenchmarkScore measures the steady-state scoring path.
func BenchmarkScore(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	set := gauss(rng, 256, 24, 0)
	m, _ := New(Config{Dim: 24, K: 16})
	m.Fit(set)
	q := gauss(rng, 1, 24, 0.5)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.NonconformityScore(q)
	}
}
