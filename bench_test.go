// Benchmark harness: one benchmark per table and figure of the paper,
// plus component-throughput and ablation benches. Quality numbers (AUC,
// gaps, op counts) are attached to the benchmark output via ReportMetric,
// so `go test -bench=. -benchmem` regenerates both the timing and the
// experiment shape. cmd/table1..3 and cmd/fig1 print the full tables.
package streamad_test

import (
	"fmt"
	"math/rand"
	"testing"

	"streamad"

	"streamad/internal/arima"
	"streamad/internal/autoenc"
	"streamad/internal/bench"
	"streamad/internal/core"
	"streamad/internal/dataset"
	"streamad/internal/drift"
	"streamad/internal/knn"
	"streamad/internal/metrics"
	"streamad/internal/nbeats"
	"streamad/internal/persist"
	"streamad/internal/reservoir"
	"streamad/internal/scenario"
	"streamad/internal/score"
	"streamad/internal/usad"
)

// benchProfile is the scaled-down profile used by the benchmarks.
func benchProfile() bench.Profile {
	return bench.Profile{
		Data:          dataset.Config{Length: 1200, SeriesCount: 1, Seed: 11},
		Window:        12,
		TrainSize:     60,
		WarmupVectors: 150,
		ScoreWindow:   60,
		ShortWindow:   4,
		KSCheckEvery:  25,
		CalibFrac:     0.3,
		CalibQ:        0.99,
		Seed:          1,
	}
}

// BenchmarkTable1Combos regenerates the Table I combination grid.
func BenchmarkTable1Combos(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(streamad.Combos())
	}
	b.ReportMetric(float64(n), "combos")
}

// BenchmarkTable2DriftMuSigma measures the per-step cost of the μ/σ-Change
// strategy at the paper's parameters (N=9, w=100, m=500), reporting the
// measured arithmetic operations next to the timing (Table II).
func BenchmarkTable2DriftMuSigma(b *testing.B) {
	benchDrift(b, func(dim int) drift.Detector { return drift.NewMuSigmaChange(dim) }, 9, 100, 500)
}

// BenchmarkTable2DriftKSWIN measures the per-step cost of the KSWIN
// strategy at reduced parameters (per-step KS over m·w samples per channel
// is exactly the expense Table II quantifies).
func BenchmarkTable2DriftKSWIN(b *testing.B) {
	benchDrift(b, func(dim int) drift.Detector {
		return drift.NewKSWIN(9, 20, drift.DefaultAlpha)
	}, 9, 20, 100)
}

func benchDrift(b *testing.B, mk func(dim int) drift.Detector, channels, w, m int) {
	dim := channels * w
	rng := rand.New(rand.NewSource(1))
	det := mk(dim)
	sw := reservoir.NewSlidingWindow(m, dim)
	x := make([]float64, dim)
	for i := 0; i < m; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		sw.Observe(x, 0)
	}
	det.Reset(sw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		u := sw.Observe(x, 0)
		if det.Observe(u, x, sw) {
			det.Reset(sw)
		}
	}
	b.StopTimer()
	ops := det.Ops()
	b.ReportMetric(float64(ops.Adds)/float64(b.N), "adds/step")
	b.ReportMetric(float64(ops.Mults)/float64(b.N), "mults/step")
	b.ReportMetric(float64(ops.Cmps)/float64(b.N), "cmps/step")
}

// benchTable3Cell runs one Table III cell (combo × corpus) per iteration
// and reports its PR-AUC, so the benchmark regenerates both runtime and
// the headline quality number of that row.
func benchTable3Cell(b *testing.B, mk streamad.ModelKind, t1 streamad.Task1, t2 streamad.Task2, corpus func(dataset.Config) *dataset.Corpus) {
	p := benchProfile()
	c := corpus(p.Data)
	combo := streamad.Combo{Model: mk, Task1: t1, Task2: t2}
	var auc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := bench.RunSeries(combo, streamad.ScoreLikelihood, p, c.Series[0])
		if err != nil {
			b.Fatal(err)
		}
		auc = sum.AUC
	}
	b.ReportMetric(auc, "pr-auc")
}

// Table III row benches: one representative cell per model per corpus.
func BenchmarkTable3ARIMADaphnet(b *testing.B) {
	benchTable3Cell(b, streamad.ModelARIMA, streamad.TaskSlidingWindow, streamad.TaskMuSigma, dataset.Daphnet)
}

func BenchmarkTable3AEDaphnet(b *testing.B) {
	benchTable3Cell(b, streamad.ModelAE, streamad.TaskSlidingWindow, streamad.TaskMuSigma, dataset.Daphnet)
}

func BenchmarkTable3USADExathlon(b *testing.B) {
	benchTable3Cell(b, streamad.ModelUSAD, streamad.TaskUniformReservoir, streamad.TaskMuSigma, dataset.Exathlon)
}

func BenchmarkTable3NBEATSSMD(b *testing.B) {
	benchTable3Cell(b, streamad.ModelNBEATS, streamad.TaskAnomalyReservoir, streamad.TaskMuSigma, dataset.SMD)
}

func BenchmarkTable3PCBIForestSMD(b *testing.B) {
	benchTable3Cell(b, streamad.ModelPCBIForest, streamad.TaskSlidingWindow, streamad.TaskKSWIN, dataset.SMD)
}

// BenchmarkFig1Finetune runs the Figure 1 fine-tuning experiment and
// reports both gaps; the "gap-finetuned" metric exceeding "gap-stale"
// is the paper's qualitative finding.
func BenchmarkFig1Finetune(b *testing.B) {
	p := bench.Fig1Profile()
	var res *bench.Fig1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.FinetuneExperimentAnySeed(bench.Fig1Config{Profile: p}, 11, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GapFinetuned, "gap-finetuned")
	b.ReportMetric(res.GapStale, "gap-stale")
}

// BenchmarkDetectorStep measures steady-state per-step throughput of every
// model at the paper's component stack (SW + μ/σ + anomaly likelihood).
func BenchmarkDetectorStep(b *testing.B) {
	corpus := dataset.Daphnet(dataset.Config{Length: 600, SeriesCount: 1, Seed: 4})
	s := corpus.Series[0]
	for _, mk := range []streamad.ModelKind{streamad.ModelARIMA, streamad.ModelPCBIForest, streamad.ModelAE, streamad.ModelUSAD, streamad.ModelNBEATS, streamad.ModelVAR} {
		mk := mk
		b.Run(mk.String(), func(b *testing.B) {
			det, err := streamad.New(streamad.Config{
				Model: mk, Task1: streamad.TaskSlidingWindow, Task2: streamad.TaskMuSigma,
				Score: streamad.ScoreLikelihood, Channels: s.Channels(),
				Window: 12, TrainSize: 60, WarmupVectors: 100, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm up outside the timed region.
			for _, row := range s.Data {
				det.Step(row)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Step(s.Data[200+(i%300)])
			}
		})
	}
}

// BenchmarkEnsembleStep measures one Step of the repo benchmark's
// model-heavy ensemble (USAD + N-BEATS, w=16, m=100, 8 channels).
func BenchmarkEnsembleStep(b *testing.B) {
	sc, err := scenario.Parse("base(corpus=gauss,channels=8,p=0.02,pool=2048)")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := sc.NewStream(1)
	if err != nil {
		b.Fatal(err)
	}
	vecs := make([][]float64, 512)
	for i := range vecs {
		v, _ := stream.Next()
		vecs[i] = append([]float64(nil), v...)
	}
	det, err := streamad.NewFromSpec("ensemble(usad+sw+musigma, nbeats+sw+musigma; agg=mean)",
		streamad.Config{Channels: 8, Window: 16, TrainSize: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range vecs {
		det.Step(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Step(vecs[i%len(vecs)])
	}
}

// benchSink keeps measured results alive.
var benchSink []byte

// BenchmarkCheckpoint measures one checkpoint of every model at the
// serving geometry of the repo benchmark's pipelines (w=16, m=100, SW +
// μ/σ): save = Detector.Save plus rendering the snapshot file, load =
// decoding that file and Detector.Load into a live detector, page =
// PageOut plus PageIn. Run with -benchmem: B/op against the reported
// state-bytes is the encoder's amplification, which was 17× under the
// nested gob envelopes and must stay near 1×.
func BenchmarkCheckpoint(b *testing.B) {
	corpus := dataset.Daphnet(dataset.Config{Length: 600, SeriesCount: 1, Seed: 4})
	s := corpus.Series[0]
	for _, mk := range []streamad.ModelKind{streamad.ModelARIMA, streamad.ModelPCBIForest, streamad.ModelAE, streamad.ModelUSAD, streamad.ModelNBEATS, streamad.ModelVAR, streamad.ModelKNN} {
		det, err := streamad.New(streamad.Config{
			Model: mk, Task1: streamad.TaskSlidingWindow, Task2: streamad.TaskMuSigma,
			Channels: s.Channels(), Window: 16, TrainSize: 100, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range s.Data[:400] {
			det.Step(row)
		}
		snapshot := func() []byte {
			blob, err := det.Save()
			if err != nil {
				b.Fatal(err)
			}
			file, err := persist.EncodeSnapshotFile(&persist.StreamSnapshot{ID: "bench", Seq: 400, Detector: blob})
			if err != nil {
				b.Fatal(err)
			}
			return file
		}
		file := snapshot()
		b.Run(mk.String()+"/save", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(file)), "state-bytes")
			for i := 0; i < b.N; i++ {
				benchSink = snapshot()
			}
		})
		b.Run(mk.String()+"/load", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap, err := persist.DecodeSnapshotFile(file)
				if err == nil {
					err = det.Load(snap.Detector)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mk.String()+"/page", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				page, err := det.PageOut()
				if err == nil {
					err = det.PageIn(page)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelFit measures one fine-tuning epoch per model over a
// TrainSize×dim training set — exactly the work the serve/train split
// moves off the scoring goroutine. Run with -benchmem: the Fit path may
// allocate (it is off the latency-critical path), but its cost here is
// what a synchronous fine-tune adds to the triggering Step.
func BenchmarkModelFit(b *testing.B) {
	const (
		channels = 3
		window   = 12
		rows     = 60
	)
	dim := channels * window
	rng := rand.New(rand.NewSource(9))
	set := make([][]float64, rows)
	for i := range set {
		set[i] = make([]float64, dim)
		for j := range set[i] {
			set[i][j] = rng.NormFloat64()
		}
	}
	models := []struct {
		name string
		mk   func() (core.Model, error)
	}{
		{"arima", func() (core.Model, error) {
			return arima.New(arima.Config{Lags: window - 2, D: 1, Channels: channels})
		}},
		{"ae", func() (core.Model, error) {
			return autoenc.New(autoenc.Config{Dim: dim, Seed: 1})
		}},
		{"usad", func() (core.Model, error) {
			return usad.New(usad.Config{Dim: dim, Seed: 1})
		}},
		{"nbeats", func() (core.Model, error) {
			return nbeats.New(nbeats.Config{Channels: channels, BackcastRows: window - 1, Seed: 1})
		}},
		{"knn", func() (core.Model, error) {
			return knn.New(knn.Config{Dim: dim})
		}},
	}
	for _, m := range models {
		m := m
		b.Run(m.name, func(b *testing.B) {
			model, err := m.mk()
			if err != nil {
				b.Fatal(err)
			}
			// First Fit grows lazily allocated scratch; time steady state.
			model.Fit(set)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Fit(set)
			}
		})
	}
}

// BenchmarkStepDuringFineTune measures serving latency while drift keeps
// triggering fine-tunes (Regular strategy, every 40 vectors). In sync
// mode every 40th Step pays the full Fit inline; in async mode that Step
// clones the model and hands the job to a goroutine, and the Step 32
// vectors later adopts the trained model — waiting only if the Fit has
// not finished by then — so the amortized per-step latency drops by
// roughly Fit/40 whenever a Fit takes less than 32 steps of scoring.
// This is the headline serve/train-split number in BENCH_hotpath.json.
func BenchmarkStepDuringFineTune(b *testing.B) {
	corpus := dataset.Daphnet(dataset.Config{Length: 600, SeriesCount: 1, Seed: 4})
	s := corpus.Series[0]
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			det, err := streamad.New(streamad.Config{
				Model: streamad.ModelAE, Task1: streamad.TaskSlidingWindow, Task2: streamad.TaskRegular,
				Score: streamad.ScoreLikelihood, RegularInterval: 40,
				Channels: s.Channels(), Window: 12, TrainSize: 60, WarmupVectors: 100, Seed: 1,
				AsyncFineTune: mode.async,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range s.Data {
				det.Step(row)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Step(s.Data[200+(i%300)])
			}
			b.StopTimer()
			det.Close()
		})
	}
}

// BenchmarkAblationReservoir compares URES against ARES detection quality
// (the paper's finding: the anomaly-aware reservoir often improves the
// PR-AUC) on the same stream.
func BenchmarkAblationReservoir(b *testing.B) {
	p := benchProfile()
	corpus := dataset.SMD(p.Data)
	for _, t1 := range []streamad.Task1{streamad.TaskUniformReservoir, streamad.TaskAnomalyReservoir} {
		t1 := t1
		b.Run(t1.String(), func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				sum, err := bench.RunSeries(streamad.Combo{Model: streamad.ModelAE, Task1: t1, Task2: streamad.TaskMuSigma},
					streamad.ScoreLikelihood, p, corpus.Series[0])
				if err != nil {
					b.Fatal(err)
				}
				auc = sum.AUC
			}
			b.ReportMetric(auc, "pr-auc")
		})
	}
}

// BenchmarkAblationScoring compares the three anomaly scoring functions on
// the same nonconformity stream (the paper's Table III bottom rows: the
// NAB score improves from Raw to Average to Anomaly Likelihood).
func BenchmarkAblationScoring(b *testing.B) {
	p := benchProfile()
	corpus := dataset.Daphnet(p.Data)
	for _, sk := range []streamad.ScoreKind{streamad.ScoreRaw, streamad.ScoreAverage, streamad.ScoreLikelihood} {
		sk := sk
		b.Run(sk.String(), func(b *testing.B) {
			var nab float64
			for i := 0; i < b.N; i++ {
				sum, err := bench.RunSeries(streamad.Combo{Model: streamad.ModelARIMA, Task1: streamad.TaskSlidingWindow, Task2: streamad.TaskMuSigma},
					sk, p, corpus.Series[0])
				if err != nil {
					b.Fatal(err)
				}
				nab = sum.NAB
			}
			b.ReportMetric(nab, "nab")
		})
	}
}

// BenchmarkAblationARESPriority sweeps the ARES priority parameters
// (u-range) against the paper's defaults, reporting how often anomalous
// vectors survive in the reservoir (lower = better filtering).
func BenchmarkAblationARESPriority(b *testing.B) {
	cases := []struct {
		name       string
		uMin, uMax float64
	}{
		{"paper-0.7-0.9", 0.7, 0.9},
		{"wide-0.1-0.9", 0.1, 0.9},
		{"tight-0.85-0.9", 0.85, 0.9},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var kept float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				ar := reservoir.NewAnomalyAwareReservoirParams(50, 1, rng, c.uMin, c.uMax, 3, 3)
				for j := 0; j < 50; j++ {
					ar.Observe([]float64{0}, 0.05)
				}
				for j := 0; j < 500; j++ {
					ar.Observe([]float64{1}, 0.9)
				}
				anomalous := 0
				for _, it := range ar.Items() {
					if it[0] == 1 {
						anomalous++
					}
				}
				kept = float64(anomalous)
			}
			b.ReportMetric(kept, "anomalous-kept")
		})
	}
}

// BenchmarkAblationNBEATSBasis compares the generic and interpretable
// N-BEATS configurations (DESIGN.md ablation) on forecast-driven
// detection quality.
func BenchmarkAblationNBEATSBasis(b *testing.B) {
	p := benchProfile()
	corpus := dataset.Daphnet(p.Data)
	s := corpus.Series[0]
	run := func(b *testing.B, interpretable bool) {
		var auc float64
		for i := 0; i < b.N; i++ {
			det, err := newNBEATSDetector(p, s.Channels(), interpretable)
			if err != nil {
				b.Fatal(err)
			}
			scores, valid := core.Run(det, s.Data)
			th := metrics.QuantileThreshold(scores, valid, p.CalibQ)
			auc = metrics.Evaluate(scores, s.Labels, valid, th).AUC
		}
		b.ReportMetric(auc, "pr-auc")
	}
	b.Run("generic", func(b *testing.B) { run(b, false) })
	b.Run("interpretable", func(b *testing.B) { run(b, true) })
}

// BenchmarkKSWINThrottle quantifies the cost of per-step KSWIN testing
// versus the throttled variant — the Table II motivation in wall-clock
// form.
func BenchmarkKSWINThrottle(b *testing.B) {
	for _, every := range []int{1, 10, 50} {
		every := every
		b.Run(fmt.Sprintf("checkevery-%d", every), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			channels, w, m := 4, 10, 50
			dim := channels * w
			k := drift.NewKSWIN(channels, w, drift.DefaultAlpha)
			k.CheckEvery = every
			sw := reservoir.NewSlidingWindow(m, dim)
			x := make([]float64, dim)
			for i := 0; i < m; i++ {
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				sw.Observe(x, 0)
			}
			k.Reset(sw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				u := sw.Observe(x, 0)
				if k.Observe(u, x, sw) {
					k.Reset(sw)
				}
			}
		})
	}
}

// newNBEATSDetector assembles an N-BEATS detector with either the generic
// or the interpretable (trend+seasonality) basis for the basis ablation.
func newNBEATSDetector(p bench.Profile, channels int, interpretable bool) (*core.Detector, error) {
	cfg := nbeats.Config{Channels: channels, BackcastRows: p.Window - 1, Seed: p.Seed}
	var model core.Model
	var err error
	if interpretable {
		model, err = nbeats.NewInterpretable(cfg)
	} else {
		model, err = nbeats.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	return core.NewDetector(core.Config{
		Representer:   core.NewRepresenter(p.Window, channels),
		Model:         model,
		TrainingSet:   reservoir.NewSlidingWindow(p.TrainSize, p.Window*channels),
		Drift:         drift.NewMuSigmaChange(p.Window * channels),
		Measure:       score.Cosine{},
		Scorer:        score.NewAnomalyLikelihood(p.ScoreWindow, p.ShortWindow),
		WarmupVectors: p.WarmupVectors,
		InitEpochs:    10,
	})
}
