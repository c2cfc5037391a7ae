package streamad

import (
	"math"
	"testing"
)

// ensembleStream builds a deterministic 2-channel test stream.
func ensembleStream(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		t := float64(i)
		out[i] = []float64{math.Sin(t / 9), math.Cos(t/13) + 0.2*math.Sin(t/4)}
	}
	return out
}

func testEnsembleSpec(t *testing.T) EnsembleSpec {
	t.Helper()
	spec, err := ParseEnsembleSpec("ensemble(knn+sw+regular+avg, arima+sw+regular+avg, knn+ures+regular+avg; agg=perf, prune=-8)")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func testEnsembleBase() Config {
	return Config{Channels: 2, Window: 8, TrainSize: 25, WarmupVectors: 30, Seed: 5}
}

// TestNewEnsembleValidation covers member-count and member-build errors.
func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(testEnsembleBase(), EnsembleSpec{Members: []PipelineSpec{{Model: ModelKNN}}}); err == nil {
		t.Error("accepted 1-member ensemble")
	}
	// VAR demands the sliding window; the member error must surface.
	bad := EnsembleSpec{Members: []PipelineSpec{
		{Model: ModelKNN, Task1: TaskSlidingWindow},
		{Model: ModelVAR, Task1: TaskUniformReservoir},
	}}
	if _, err := NewEnsemble(testEnsembleBase(), bad); err == nil {
		t.Error("accepted invalid member pipeline")
	}
	// NewFromSpec routes both grammars.
	if _, err := NewFromSpec("knn+sw+regular+avg", testEnsembleBase()); err != nil {
		t.Errorf("single-pipeline spec: %v", err)
	}
	if _, err := NewFromSpec("ensemble(knn+sw+regular, arima+sw+regular)", testEnsembleBase()); err != nil {
		t.Errorf("ensemble spec: %v", err)
	}
	if _, err := NewFromSpec("nonsense", testEnsembleBase()); err == nil {
		t.Error("accepted a nonsense spec")
	}
}

// TestEnsembleDistinctMemberSeeds: members — even with identical specs —
// must run with distinct RNG seeds derived from the base seed.
func TestEnsembleDistinctMemberSeeds(t *testing.T) {
	spec := EnsembleSpec{Members: []PipelineSpec{
		{Model: ModelKNN, Task1: TaskUniformReservoir, Task2: TaskRegular, Score: ScoreAverage},
		{Model: ModelKNN, Task1: TaskUniformReservoir, Task2: TaskRegular, Score: ScoreAverage},
		{Model: ModelKNN, Task1: TaskUniformReservoir, Task2: TaskRegular, Score: ScoreAverage},
	}}
	e, err := NewEnsemble(testEnsembleBase(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The seeds are visible through the members' configurations.
	seeds := map[int64]bool{}
	for i, m := range e.Children() {
		det, ok := m.(*Detector)
		if !ok {
			t.Fatalf("member %d is %T, want *Detector", i, m)
		}
		seed := det.Config().Seed
		if seeds[seed] {
			t.Fatalf("member %d reuses seed %d", i, seed)
		}
		seeds[seed] = true
	}
	if !seeds[testEnsembleBase().Seed] {
		t.Error("member 0 must run with the base seed")
	}
}

// TestEnsembleRunEndToEnd scores a series through a 3-member ensemble and
// sanity-checks the output ranges and member bookkeeping.
func TestEnsembleRunEndToEnd(t *testing.T) {
	e, err := NewEnsemble(testEnsembleBase(), testEnsembleSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	series := ensembleStream(200)
	scores, valid := Run(e, series)
	nValid := 0
	for i := range scores {
		if valid[i] {
			nValid++
			if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
				t.Fatalf("non-finite combined score at %d: %v", i, scores[i])
			}
		}
	}
	if nValid == 0 {
		t.Fatal("ensemble never became ready")
	}
	if e.Steps() != 200 {
		t.Fatalf("Steps=%d, want 200", e.Steps())
	}
	if e.FineTunes() == 0 {
		t.Fatal("expected drift-triggered fine-tunes with the regular strategy")
	}
	stats := e.Stats().Members
	if len(stats) != 3 {
		t.Fatalf("got %d member stats, want 3", len(stats))
	}
	for i, st := range stats {
		if st.Label == "" || st.Ready == 0 {
			t.Fatalf("member %d stats look dead: %+v", i, st)
		}
	}
}

// TestEnsembleSaveLoadBitIdentical checkpoints a live ensemble mid-stream
// — across drift-triggered fine-tunes — and verifies the restored
// ensemble's scores match the uninterrupted run exactly.
func TestEnsembleSaveLoadBitIdentical(t *testing.T) {
	series := ensembleStream(240)
	build := func() *Ensemble {
		e, err := NewEnsemble(testEnsembleBase(), testEnsembleSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build()
	defer ref.Close()
	live := build()
	defer live.Close()
	for i := 0; i < 150; i++ {
		ref.Step(series[i])
		live.Step(series[i])
	}
	blob, err := live.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored := build()
	defer restored.Close()
	if err := restored.Load(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != 150 {
		t.Fatalf("restored Steps=%d, want 150", restored.Steps())
	}
	sawFineTune := false
	for i := 150; i < 240; i++ {
		want, wok := ref.Step(series[i])
		got, gok := restored.Step(series[i])
		if wok != gok || got.Score != want.Score || got.Nonconformity != want.Nonconformity || got.FineTuned != want.FineTuned {
			t.Fatalf("restored ensemble diverged at step %d: (%+v,%v) vs (%+v,%v)", i, got, gok, want, wok)
		}
		if got.FineTuned {
			sawFineTune = true
		}
	}
	if !sawFineTune {
		t.Fatal("test did not cross a fine-tune after the restore point; tighten the schedule")
	}
	// A mismatched configuration must be rejected.
	otherSpec := testEnsembleSpec(t)
	otherSpec.Agg = AggMedian
	other, err := NewEnsemble(testEnsembleBase(), otherSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Load(blob); err == nil {
		t.Error("median ensemble accepted a perf-weighted snapshot")
	}
}
