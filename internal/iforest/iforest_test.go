package iforest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func cluster(rng *rand.Rand, n, dim int, center, spread float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for d := range p {
			p[d] = center + spread*rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func TestAvgPathLength(t *testing.T) {
	if AvgPathLength(0) != 0 || AvgPathLength(1) != 0 {
		t.Fatal("c(n≤1) should be 0")
	}
	if AvgPathLength(2) != 1 {
		t.Fatal("c(2) should be 1")
	}
	// c(256) ≈ 10.24 (standard iforest constant).
	if c := AvgPathLength(256); math.Abs(c-10.24) > 0.1 {
		t.Fatalf("c(256) = %v, want ≈10.24", c)
	}
	// Monotone increasing.
	if AvgPathLength(100) >= AvgPathLength(1000) {
		t.Fatal("c must grow with n")
	}
}

func TestScoreMapping(t *testing.T) {
	// Depth == c(n) → score 0.5; shallower → higher.
	n := 256
	c := AvgPathLength(n)
	if s := Score(c, n); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("Score(c,%d) = %v, want 0.5", n, s)
	}
	if Score(1, n) <= Score(c, n) {
		t.Fatal("shallow isolation must score higher")
	}
	if Score(3*c, n) >= 0.5 {
		t.Fatal("deep paths must score below 0.5")
	}
	if s := Score(5, 1); s != 0.5 {
		t.Fatalf("degenerate sample size should yield 0.5, got %v", s)
	}
}

func TestTreeIsolatesOutlierFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := cluster(rng, 256, 2, 0, 1)
	var inlierDepth, outlierDepth float64
	const trees = 40
	for i := 0; i < trees; i++ {
		tr := NewTree(points, rng)
		inlierDepth += tr.PathLength([]float64{0.1, -0.2})
		outlierDepth += tr.PathLength([]float64{12, -11})
	}
	if outlierDepth >= inlierDepth {
		t.Fatalf("outlier depth %v should be below inlier depth %v", outlierDepth/trees, inlierDepth/trees)
	}
}

func TestTreeDegenerateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// All-identical points can never split.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	tr := NewTree(pts, rng)
	if d := tr.PathLength([]float64{1, 1}); d <= 0 {
		t.Fatalf("degenerate tree PathLength = %v", d)
	}
	// Single point.
	tr1 := NewTree(pts[:1], rng)
	if d := tr1.PathLength([]float64{5, 5}); d != 0 {
		t.Fatalf("single-point tree depth = %v, want 0", d)
	}
}

func featureVec(s []float64, w int) []float64 {
	x := make([]float64, 0, len(s)*w)
	for i := 0; i < w; i++ {
		x = append(x, s...)
	}
	return x
}

func TestPCBForestConfigValidation(t *testing.T) {
	if _, err := New(Config{Channels: 0}); err == nil {
		t.Fatal("expected error for Channels=0")
	}
	if _, err := New(Config{Channels: 1, Trees: -1}); err == nil {
		t.Fatal("expected error for negative Trees")
	}
	f, err := New(Config{Channels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.numTrees != 25 || f.fitted {
		t.Fatalf("defaults wrong: trees=%d fitted=%v", f.numTrees, f.fitted)
	}
}

func TestPCBForestScoresOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, _ := New(Config{Channels: 2, Trees: 50, Seed: 3})
	set := make([][]float64, 300)
	for i := range set {
		s := []float64{rng.NormFloat64(), rng.NormFloat64()}
		set[i] = featureVec(s, 4)
	}
	f.Fit(set)
	if !f.fitted {
		t.Fatal("Fit did not build the forest")
	}
	inlier := f.NonconformityScore(featureVec([]float64{0.2, -0.1}, 4))
	outlier := f.NonconformityScore(featureVec([]float64{9, -8}, 4))
	if outlier <= inlier {
		t.Fatalf("outlier score %v should exceed inlier score %v", outlier, inlier)
	}
	if inlier < 0 || inlier > 1 || outlier < 0 || outlier > 1 {
		t.Fatalf("scores out of [0,1]: %v %v", inlier, outlier)
	}
}

func TestPCBForestUnfittedReturnsNeutral(t *testing.T) {
	f, _ := New(Config{Channels: 2, Seed: 4})
	if s := f.NonconformityScore([]float64{1, 2}); s != 0.5 {
		t.Fatalf("unfitted score = %v, want 0.5", s)
	}
}

func TestPCBForestCountersUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, _ := New(Config{Channels: 1, Trees: 10, Seed: 5})
	set := make([][]float64, 100)
	for i := range set {
		set[i] = []float64{rng.NormFloat64()}
	}
	f.Fit(set)
	for i := 0; i < 20; i++ {
		f.NonconformityScore([]float64{rng.NormFloat64()})
	}
	nonZero := 0
	for _, c := range f.counters {
		if c != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("performance counters never moved")
	}
}

func TestPCBForestPruneAndRegrow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f, _ := New(Config{Channels: 1, Trees: 12, Seed: 6})
	set := make([][]float64, 150)
	for i := range set {
		set[i] = []float64{rng.NormFloat64()}
	}
	f.Fit(set)
	// Score some points so counters diverge, then trigger the PCB policy.
	for i := 0; i < 50; i++ {
		f.NonconformityScore([]float64{rng.NormFloat64() * 3})
	}
	f.Fit(set) // drift-style refit
	if got := len(f.counters); got != 12 {
		t.Fatalf("forest size after refit = %d, want 12", got)
	}
	for _, c := range f.counters {
		if c != 0 {
			t.Fatal("counters must reset after the PCB refit")
		}
	}
	if f.pruned+f.grown == 0 {
		t.Log("no trees pruned this run (all counters positive) — acceptable")
	}
	// Forest must still score sanely.
	s := f.NonconformityScore([]float64{0})
	if s < 0 || s > 1 {
		t.Fatalf("post-refit score = %v", s)
	}
}

func TestPCBForestEmptyFitIsNoop(t *testing.T) {
	f, _ := New(Config{Channels: 2, Seed: 7})
	f.Fit(nil)
	if f.fitted {
		t.Fatal("empty Fit must not mark fitted")
	}
	f.Fit([][]float64{{1}}) // shorter than one stream vector
	if f.fitted {
		t.Fatal("too-short vectors must be ignored")
	}
}

func TestPCBForestDeterministicWithSeed(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(42))
		f, _ := New(Config{Channels: 1, Trees: 15, Seed: 9})
		set := make([][]float64, 120)
		for i := range set {
			set[i] = []float64{rng.NormFloat64()}
		}
		f.Fit(set)
		return f.NonconformityScore([]float64{2.5})
	}
	if build() != build() {
		t.Fatal("same seed must give identical forests")
	}
}

func TestPCBForestScorePanicsOnShortVector(t *testing.T) {
	f, _ := New(Config{Channels: 3, Seed: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.NonconformityScore([]float64{1})
}

func TestNewTreeLeavesSampleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sample := cluster(rng, 64, 3, 0, 1)
	before := slices.Clone(sample)
	NewTree(sample, rng)
	for i := range sample {
		if &sample[i][0] != &before[i][0] {
			t.Fatalf("NewTree moved the caller's point %d", i)
		}
	}
}

// TestNonconformityScoreZeroAlloc: once the forest is fitted, scoring walks
// the slabs and keeps its per-tree depths in the forest's scratch.
func TestNonconformityScoreZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f, _ := New(Config{Channels: 4, Seed: 12})
	f.Fit(cluster(rng, 100, 4, 0, 1))
	x := []float64{0.1, -0.3, 2, 0.5}
	if allocs := testing.AllocsPerRun(200, func() { f.NonconformityScore(x) }); allocs != 0 {
		t.Fatalf("NonconformityScore allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkPCBScore scores one vector per op on 512 forests at the
// tier-churn workload's geometry (25 trees, 100 training vectors, 4
// channels), round-robin, so the trees come from memory the way a fleet's
// do rather than from a warm L1.
func BenchmarkPCBScore(b *testing.B) {
	const forests, channels = 512, 4
	rng := rand.New(rand.NewSource(13))
	fleet := make([]*PCBForest, forests)
	for i := range fleet {
		fleet[i], _ = New(Config{Channels: channels, Seed: int64(i)})
		fleet[i].Fit(cluster(rng, 100, channels, 0, 1))
	}
	xs := cluster(rng, 64, channels, 0, 1.5)
	for _, f := range fleet {
		f.NonconformityScore(xs[0]) // sizes the depth scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet[i%forests].NonconformityScore(xs[i%len(xs)])
	}
}
