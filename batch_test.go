package streamad

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"streamad/internal/autoenc"
	"streamad/internal/core"
	"streamad/internal/nbeats"
	"streamad/internal/usad"
)

// TestPredictBatchMatchesPredict: every batch-predicting model returns,
// at every batch size from 1 to 17, each window's target and prediction
// bit-identical to that window's own Predict.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const channels, rows = 3, 6
	dim := channels * rows
	rng := rand.New(rand.NewSource(21))
	window := func() []float64 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		return x
	}
	set := make([][]float64, 40)
	for i := range set {
		set[i] = window()
	}
	type batchModel interface {
		core.Model
		core.Predictor
		core.BatchPredictor
	}
	build := map[string]func() (batchModel, error){
		"ae":   func() (batchModel, error) { return autoenc.New(autoenc.Config{Dim: dim, Seed: 1}) },
		"usad": func() (batchModel, error) { return usad.New(usad.Config{Dim: dim, Seed: 1}) },
		"nbeats": func() (batchModel, error) {
			return nbeats.New(nbeats.Config{Channels: channels, BackcastRows: rows - 1, Seed: 1})
		},
	}
	for name, mk := range build {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		m.Fit(set)
		for batch := 1; batch <= 17; batch++ {
			xs := make([]float64, 0, batch*dim)
			for s := 0; s < batch; s++ {
				xs = append(xs, window()...)
			}
			var want [][2][]float64
			for s := 0; s < batch; s++ {
				tg, pr := m.Predict(xs[s*dim : (s+1)*dim])
				want = append(want, [2][]float64{append([]float64(nil), tg...), append([]float64(nil), pr...)})
			}
			targets, preds := m.PredictBatch(xs, batch, make([]float64, m.BatchScratch(batch)))
			tn, pn := len(targets)/batch, len(preds)/batch
			for s, w := range want {
				got := [2][]float64{targets[s*tn : (s+1)*tn], preds[s*pn : (s+1)*pn]}
				for k, what := range []string{"target", "prediction"} {
					if len(got[k]) != len(w[k]) {
						t.Fatalf("%s batch %d window %d: %s has %d values, Predict %d", name, batch, s, what, len(got[k]), len(w[k]))
					}
					for i := range w[k] {
						if math.Float64bits(got[k][i]) != math.Float64bits(w[k][i]) {
							t.Fatalf("%s batch %d window %d: %s[%d] = %v, Predict %v", name, batch, s, what, i, got[k][i], w[k][i])
						}
					}
				}
			}
		}
	}
}

// TestStepBatchMatchesStep runs each batch-predicting leaf through
// core.StepBatch in batches of every size from 1 to 20 against a twin
// stepped per vector, with non-finite inputs repaired (Sanitize),
// attribution on, a wrong-length vector now and then, and fine-tunes
// every 5 ready steps — sync, and async adopted 32 steps later — so
// adoptions land inside batches: every outcome must match bit for bit.
func TestStepBatchMatchesStep(t *testing.T) {
	for _, m := range []ModelKind{ModelAE, ModelUSAD, ModelNBEATS} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", modelNames.Spec(m), async), func(t *testing.T) {
				cfg := Config{
					Model: m, Task1: TaskSlidingWindow, Task2: TaskRegular, Score: ScoreLikelihood,
					RegularInterval: 5, Channels: 3, Window: 6, TrainSize: 24, WarmupVectors: 30, Seed: 4,
					Sanitize: true, Attribution: true, AsyncFineTune: async,
				}
				batched, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				input := func(i int) []float64 {
					switch {
					case i%97 == 50:
						return []float64{1, 2}
					case i%31 == 7:
						return []float64{math.NaN(), 0.5, math.Inf(1)}
					}
					return syntheticVec(make([]float64, 3), i)
				}
				out := make([]core.Outcome, 20)
				for i, batch := 0, 1; i < 600; i, batch = i+batch, batch%20+1 {
					xs := make([][]float64, batch)
					for k := range xs {
						xs[k] = input(i + k)
					}
					core.StepBatch(batched, xs, out)
					for k, x := range xs {
						want := stepRef(twin, x)
						got := out[k]
						if (got.Rejected != nil) != (want.Rejected != nil) || got.Ready != want.Ready ||
							math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
							math.Float64bits(got.Nonconformity) != math.Float64bits(want.Nonconformity) ||
							got.FineTuned != want.FineTuned {
							t.Fatalf("vector %d (batch of %d, offset %d): got %+v, want %+v", i+k, batch, k, got, want)
						}
					}
				}
				if batched.FineTunes() == 0 || batched.FineTunes() != twin.FineTunes() || batched.Steps() != twin.Steps() {
					t.Fatalf("fine-tunes %d vs %d, steps %d vs %d", batched.FineTunes(), twin.FineTunes(), batched.Steps(), twin.Steps())
				}
			})
		}
	}
}

// stepRef is the per-vector reference: one Step, a panic caught into
// the Outcome's Rejected.
func stepRef(n core.Stepper, x []float64) (o core.Outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = core.Outcome{Rejected: p}
		}
	}()
	o.Result, o.Ready = n.Step(x)
	return o
}

// TestStepBatchSharesScratchSafely steps four leaves on four goroutines
// at once, so their runs borrow and return the shared scratch slabs
// concurrently; each must still match its own per-vector twin. Run with
// -race.
func TestStepBatchSharesScratchSafely(t *testing.T) {
	cfg := Config{
		Model: ModelUSAD, Task1: TaskSlidingWindow, Task2: TaskRegular, Score: ScoreLikelihood,
		RegularInterval: 40, Channels: 3, Window: 6, TrainSize: 24, WarmupVectors: 30,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cfg.Seed = int64(g + 1)
		batched, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs, out := make([][]float64, core.MaxBatch), make([]core.Outcome, core.MaxBatch)
			for i := 0; i < 400; i += len(xs) {
				for k := range xs {
					xs[k] = syntheticVec(make([]float64, 3), 7*g+i+k)
				}
				core.StepBatch(batched, xs, out)
				for k, x := range xs {
					want, ok := twin.Step(x)
					if out[k].Ready != ok || math.Float64bits(out[k].Score) != math.Float64bits(want.Score) {
						t.Errorf("goroutine %d vector %d: got %+v, want %+v (ready %v)", g, i+k, out[k], want, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
