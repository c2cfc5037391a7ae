package streamad

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"streamad/internal/core"
	"streamad/internal/reservoir"
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
func buildWarmDetector(t testing.TB, model ModelKind, sc ScoreKind) *Detector {
	t.Helper()
	d, err := New(Config{
		Model: model, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: sc, RegularInterval: 1 << 30,
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

// TestStepZeroAllocModels: the scoring hot path must not touch the heap.
// The zero-allocation kernels are the contract the serve/train split's
// latency target rests on, so every model is pinned under every scoring
// function. VAR (target, prediction and regressor) was never
// zero-allocation; it is pinned at today's count so it cannot grow.
func TestStepZeroAllocModels(t *testing.T) {
	budget := map[ModelKind]float64{ModelVAR: 3}
	for m := ModelARIMA; m <= ModelKNN; m++ {
		for _, sc := range []ScoreKind{ScoreRaw, ScoreAverage, ScoreLikelihood} {
			t.Run(modelNames.Spec(m)+"/"+scoreNames.Spec(sc), func(t *testing.T) {
				d := buildWarmDetector(t, m, sc)
				buf := make([]float64, 3)
				step := 100000
				allocs := testing.AllocsPerRun(200, func() {
					if _, ok := d.Step(syntheticVec(buf, step)); !ok {
						t.Fatal("warm detector returned not-ready")
					}
					step++
				})
				if allocs > budget[m] {
					t.Fatalf("Step allocates %.1f objects per call, budget %.0f", allocs, budget[m])
				}
			})
		}
	}
	// The models that predict in batches: a warm StepBatch stays off the
	// heap at every batch size a dispatcher hands it.
	for _, m := range []ModelKind{ModelAE, ModelUSAD, ModelNBEATS} {
		d := buildWarmDetector(t, m, ScoreLikelihood)
		for _, batch := range []int{1, 7, 16} {
			t.Run(fmt.Sprintf("%s/StepBatch-%d", modelNames.Spec(m), batch), func(t *testing.T) {
				zeroAllocBatch(t, d, batch)
			})
		}
	}
}

// zeroAllocBatch pins core.StepBatch over batch fresh vectors at 0
// allocations per call on a warm node.
func zeroAllocBatch(t *testing.T, n core.Stepper, batch int) {
	t.Helper()
	xs, out := make([][]float64, batch), make([]core.Outcome, batch)
	for i := range xs {
		xs[i] = make([]float64, 3)
	}
	step := 100000
	allocs := testing.AllocsPerRun(50, func() {
		for _, x := range xs {
			syntheticVec(x, step)
			step++
		}
		if ready := core.StepBatch(n, xs, out); ready != batch {
			t.Fatalf("warm node returned %d of %d ready", ready, batch)
		}
	})
	if allocs != 0 {
		t.Fatalf("StepBatch of %d allocates %.1f objects per call, want 0", batch, allocs)
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
	for _, batch := range []int{1, 7, 16} {
		t.Run(fmt.Sprintf("StepBatch-%d", batch), func(t *testing.T) { zeroAllocBatch(t, e, batch) })
	}
}

// asyncConfig is the USAD pipeline the async tests drive: a Regular
// trigger every 20 vectors, so most triggers land inside the previous
// fine-tune's adoption window and are skipped.
func asyncConfig() Config {
	return Config{
		Model: ModelUSAD, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 20,
		Channels: 2, Window: 6, TrainSize: 32, WarmupVectors: 40, Seed: 7,
		AsyncFineTune: true,
	}
}

// asyncDigest steps d through n synthetic vectors and folds every
// result — readiness, score and nonconformity bits, fine-tune flag —
// into an FNV-64a.
func asyncDigest(t *testing.T, d *Detector, n int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var rec [18]byte
	buf := make([]float64, 2)
	for step := 0; step < n; step++ {
		res, ok := d.Step(syntheticVec(buf, step))
		if ok && (math.IsNaN(res.Score) || math.IsInf(res.Score, 0)) {
			t.Fatalf("step %d: non-finite score %v", step, res.Score)
		}
		rec[0], rec[1] = 0, 0
		if ok {
			rec[0] = 1
		}
		if res.FineTuned {
			rec[1] = 1
		}
		binary.LittleEndian.PutUint64(rec[2:], math.Float64bits(res.Score))
		binary.LittleEndian.PutUint64(rec[10:], math.Float64bits(res.Nonconformity))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// TestAsyncIsAPureFunctionOfTheInput: an asynchronous fine-tune is
// adopted at a fixed distance from its trigger, so the scores cannot
// depend on which trainer ran it or when it finished. Five trainers that
// finish jobs at very different times — immediately, never (the due step
// trains it), on a goroutine, on one shared slot, on four — must produce
// one digest.
func TestAsyncIsAPureFunctionOfTheInput(t *testing.T) {
	const steps = 600
	closed := NewTrainerPool(1)
	closed.Close() // Submit after Close runs the job at once, inline
	held := NewTrainerPool(1)
	release := make(chan struct{})
	held.Submit(func() { <-release }, nil) // the only slot never frees up
	defer func() { close(release); held.Close() }()
	one, four := NewTrainerPool(1), NewTrainerPool(4)
	defer one.Close()
	defer four.Close()

	var want uint64
	for i, tc := range []struct {
		name string
		pool *TrainerPool
	}{
		{"runs at once", closed},
		{"never starts", held},
		{"goroutine per job", nil},
		{"pool of 1", one},
		{"pool of 4", four},
	} {
		cfg := asyncConfig()
		cfg.TrainerPool, cfg.TrainerKey = tc.pool, "s"
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := asyncDigest(t, d, steps)
		d.Close()
		st := d.FineTuneStats()
		if !st.Async || st.Launched < 5 || st.Skipped == 0 || d.FineTunes() < 5 {
			t.Fatalf("%s: want several launched, skipped and adopted fine-tunes: %+v, %d adopted", tc.name, st, d.FineTunes())
		}
		if tc.pool == held && st.AdoptWaits != int64(d.FineTunes()) {
			t.Fatalf("%s: every due step had to train its job, but %d of %d waited", tc.name, st.AdoptWaits, d.FineTunes())
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("%s: score digest %016x, %q gave %016x", tc.name, got, "runs at once", want)
		}
	}
}

// TestStepAfterTrainerPoolClose: a detector whose shared trainer pool
// has closed under it (daemon shutdown) keeps stepping through
// fine-tunes — each is trained inline by the closed pool's Submit —
// instead of deadlocking on its own Step.
func TestStepAfterTrainerPoolClose(t *testing.T) {
	tp := NewTrainerPool(1)
	tp.Close()
	d, err := New(Config{
		Model: ModelAE, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 10,
		Channels: 2, Window: 6, TrainSize: 24, WarmupVectors: 30, Seed: 5,
		AsyncFineTune: true, TrainerPool: tp, TrainerKey: "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]float64, 2)
		for step := 0; step < 400; step++ {
			d.Step(syntheticVec(buf, step))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Step deadlocked on a fine-tune submitted to a closed trainer pool")
	}
	if st := d.FineTuneStats(); st.Launched < 5 {
		t.Fatalf("only %d fine-tunes launched; the test must cross at least 5 triggers", st.Launched)
	}
}

// TestAsyncFineTuneConcurrent exercises the model swap under load, the
// background Fit genuinely overlapping scoring — the race job runs this
// with -race to prove the hand-off is clean.
func TestAsyncFineTuneConcurrent(t *testing.T) {
	d, err := New(asyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	asyncDigest(t, d, 600)
	d.Close()
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

// BenchmarkSlidingWindowObserve measures one steady-state sliding-window
// Observe at the ingest-light geometry (w=16, m=100, 8 channels): the
// window is full, every op evicts the oldest vector and takes the next
// one, which shifts the previous window by one row as the representation
// does (that shift is part of the op). one drives a single window, whose
// storage stays in the core's caches; fleet256 drives ingest-light's 256
// windows round-robin, so each op finds its window as a fleet's stream
// does.
func BenchmarkSlidingWindowObserve(b *testing.B) {
	const w, m, channels = 16, 100, 8
	rows := make([][]float64, 1024)
	for t := range rows {
		rows[t] = syntheticVec(make([]float64, channels), t)
	}
	for _, streams := range []int{1, 256} {
		name := "one"
		if streams > 1 {
			name = fmt.Sprintf("fleet%d", streams)
		}
		b.Run(name, func(b *testing.B) {
			sws := make([]*reservoir.SlidingWindow, streams)
			xs := make([][]float64, streams)
			for i := range sws {
				sws[i] = reservoir.NewSlidingWindow(m, w*channels, channels)
				xs[i] = make([]float64, w*channels)
			}
			step := 0
			next := func() {
				i := step % streams
				x := xs[i]
				copy(x, x[channels:])
				copy(x[len(x)-channels:], rows[(step/streams)%len(rows)])
				step++
				sws[i].Observe(x, 0)
			}
			for i := 0; i < 4*(m+w)*streams; i++ {
				next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
			}
		})
	}
}
