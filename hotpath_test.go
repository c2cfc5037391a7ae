package streamad

import (
	"math"
	"testing"
)

// syntheticVec fills dst with a deterministic multi-channel waveform.
func syntheticVec(dst []float64, t int) []float64 {
	for c := range dst {
		dst[c] = math.Sin(float64(t)*0.07+float64(c)) + 0.1*math.Cos(float64(t)*0.31)
	}
	return dst
}

// buildWarmDetector assembles a detector with the Regular drift strategy
// parked far in the future, feeds it past warmup, and returns it ready to
// score — so a subsequent Step exercises exactly the serving hot path:
// representation push, predict, nonconformity, scoring, training-set
// observe.
func buildWarmDetector(t testing.TB, model ModelKind) *Detector {
	t.Helper()
	d, err := New(Config{
		Model: model, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 1 << 30,
		Channels: 3, Window: 8, TrainSize: 32, WarmupVectors: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	step := 0
	for !d.WarmedUp() {
		d.Step(syntheticVec(buf, step))
		step++
		if step > 10000 {
			t.Fatal("detector never warmed up")
		}
	}
	// A few post-warmup steps let lazily grown scratch (sanitize buffers,
	// scorer windows, ARIMA series) reach steady state.
	for i := 0; i < 20; i++ {
		d.Step(syntheticVec(buf, step))
		step++
	}
	return d
}

// stepAllocs measures steady-state heap allocations per Step.
func stepAllocs(t *testing.T, model ModelKind) float64 {
	t.Helper()
	d := buildWarmDetector(t, model)
	buf := make([]float64, 3)
	step := 100000
	return testing.AllocsPerRun(200, func() {
		if _, ok := d.Step(syntheticVec(buf, step)); !ok {
			t.Fatal("warm detector returned not-ready")
		}
		step++
	})
}

// The scoring hot path must not touch the heap: the zero-allocation
// kernels are the contract the serve/train split's latency target rests
// on. Guarded for the three neural pipelines and one linear one (online
// ARIMA).
func TestStepZeroAllocAutoencoder(t *testing.T) {
	if allocs := stepAllocs(t, ModelAE); allocs != 0 {
		t.Fatalf("autoencoder Step allocates %.1f objects per call, want 0", allocs)
	}
}

func TestStepZeroAllocARIMA(t *testing.T) {
	if allocs := stepAllocs(t, ModelARIMA); allocs != 0 {
		t.Fatalf("ARIMA Step allocates %.1f objects per call, want 0", allocs)
	}
}

func TestStepZeroAllocUSAD(t *testing.T) {
	if allocs := stepAllocs(t, ModelUSAD); allocs != 0 {
		t.Fatalf("USAD Step allocates %.1f objects per call, want 0", allocs)
	}
}

func TestStepZeroAllocNBEATS(t *testing.T) {
	if allocs := stepAllocs(t, ModelNBEATS); allocs != 0 {
		t.Fatalf("N-BEATS Step allocates %.1f objects per call, want 0", allocs)
	}
}

// TestStepZeroAllocEnsemble: a warm ensemble's whole Step — members,
// aggregation, agreement counters — stays off the heap.
func TestStepZeroAllocEnsemble(t *testing.T) {
	e, err := NewEnsemble(Config{
		Channels: 3, Window: 8, TrainSize: 32, WarmupVectors: 40, Seed: 3,
		RegularInterval: 1 << 30,
	}, EnsembleSpec{Members: []PipelineSpec{
		{Model: ModelUSAD, Task1: TaskSlidingWindow, Task2: TaskRegular, Score: ScoreLikelihood},
		{Model: ModelNBEATS, Task1: TaskSlidingWindow, Task2: TaskRegular, Score: ScoreLikelihood},
	}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	step := 0
	for ; step < 200; step++ {
		e.Step(syntheticVec(buf, step))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := e.Step(syntheticVec(buf, step)); !ok {
			t.Fatal("warm ensemble returned not-ready")
		}
		step++
	})
	if allocs != 0 {
		t.Fatalf("ensemble Step allocates %.1f objects per call, want 0", allocs)
	}
}

// TestAsyncMatchesSyncWhenDrained is the equivalence guarantee of the
// serve/train split: draining the trainer after every step removes the
// only source of divergence (scoring on stale parameters), so async mode
// must reproduce synchronous scores bit for bit — the clone carries the
// full optimizer state and trains on an identical training-set snapshot.
func TestAsyncMatchesSyncWhenDrained(t *testing.T) {
	cfg := Config{
		Model: ModelAE, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 25,
		Channels: 2, Window: 6, TrainSize: 24, WarmupVectors: 30, Seed: 5,
	}
	syncDet, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := cfg
	acfg.AsyncFineTune = true
	asyncDet, err := New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if !asyncDet.FineTuneStats().Async {
		t.Fatal("async detector did not activate the serve/train split")
	}

	buf := make([]float64, 2)
	buf2 := make([]float64, 2)
	for step := 0; step < 400; step++ {
		rs, oks := syncDet.Step(syntheticVec(buf, step))
		ra, oka := asyncDet.Step(syntheticVec(buf2, step))
		asyncDet.WaitFineTune()
		if oks != oka {
			t.Fatalf("step %d: readiness diverged (sync %v, async %v)", step, oks, oka)
		}
		if rs.Score != ra.Score || rs.Nonconformity != ra.Nonconformity {
			t.Fatalf("step %d: drained async diverged from sync: score %v vs %v, nonconformity %v vs %v",
				step, rs.Score, ra.Score, rs.Nonconformity, ra.Nonconformity)
		}
		if rs.FineTuned != ra.FineTuned {
			t.Fatalf("step %d: FineTuned diverged (sync %v, async %v)", step, rs.FineTuned, ra.FineTuned)
		}
	}
	if s, a := syncDet.FineTunes(), asyncDet.FineTunes(); s != a || s == 0 {
		t.Fatalf("fine-tune counts diverged: sync %d, async %d (want equal and nonzero)", s, a)
	}
}

// TestAsyncFineTuneConcurrent exercises the model swap under load without
// draining, so the background Fit genuinely overlaps scoring — the race
// job runs this with -race to prove the swap is clean.
func TestAsyncFineTuneConcurrent(t *testing.T) {
	d, err := New(Config{
		Model: ModelUSAD, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 20,
		Channels: 2, Window: 6, TrainSize: 32, WarmupVectors: 40, Seed: 7,
		AsyncFineTune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 2)
	for step := 0; step < 600; step++ {
		res, ok := d.Step(syntheticVec(buf, step))
		if ok && (math.IsNaN(res.Score) || math.IsInf(res.Score, 0)) {
			t.Fatalf("step %d: non-finite score %v", step, res.Score)
		}
	}
	d.WaitFineTune()
	st := d.FineTuneStats()
	if !st.Async || st.Launched == 0 || st.Completed == 0 {
		t.Fatalf("expected async fine-tunes to have run, got %+v", st)
	}
	if d.FineTunes() == 0 {
		t.Fatal("no trained model was ever adopted")
	}
	var bucketTotal uint64
	for _, b := range st.Buckets {
		bucketTotal += b
	}
	if bucketTotal != uint64(st.Completed) {
		t.Fatalf("histogram counts %d do not sum to completed %d", bucketTotal, st.Completed)
	}
}

// TestAsyncSpecToken covers the grammar surface of the split.
func TestAsyncSpecToken(t *testing.T) {
	ps, err := parseAs[PipelineSpec]("ae+sw+regular+al+async")
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Async || ps.Model != ModelAE || ps.Score != ScoreLikelihood {
		t.Fatalf("parsed %+v", ps)
	}
	if got := ps.String(); got != "ae+sw+regular+al+async" {
		t.Fatalf("round-trip = %q", got)
	}
	ps, err = parseAs[PipelineSpec]("arima+sw+kswin+async")
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Async || ps.Score != ScoreLikelihood {
		t.Fatalf("parsed %+v", ps)
	}
	if _, err := parseAs[PipelineSpec]("arima+sw+async"); err == nil {
		t.Fatal("3-part spec ending in async must not parse (async is not a task2)")
	}
}

// TestStepZeroAllocSanitizeAttribution covers the scoring hot path with
// both input repair and per-channel attribution switched on — the two
// features whose scratch buffers used to be allocated lazily inside the
// first Step instead of by the constructor.
func TestStepZeroAllocSanitizeAttribution(t *testing.T) {
	d, err := New(Config{
		Model: ModelARIMA, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 1 << 30,
		Channels: 3, Window: 8, TrainSize: 32, WarmupVectors: 40, Seed: 3,
		Sanitize: true, Attribution: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	step := 0
	for !d.WarmedUp() {
		d.Step(syntheticVec(buf, step))
		step++
		if step > 10000 {
			t.Fatal("detector never warmed up")
		}
	}
	for i := 0; i < 20; i++ {
		d.Step(syntheticVec(buf, step))
		step++
	}
	allocs := testing.AllocsPerRun(200, func() {
		vec := syntheticVec(buf, step)
		if step%7 == 0 {
			vec[step%3] = math.NaN() // exercise the repair branch too
		}
		if _, ok := d.Step(vec); !ok {
			t.Fatal("warm detector returned not-ready")
		}
		step++
	})
	if allocs != 0 {
		t.Fatalf("Step with sanitize+attribution allocates %.1f objects per call, want 0", allocs)
	}
}
