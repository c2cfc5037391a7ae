package streamad

import (
	"strings"
	"testing"

	"streamad/internal/dataset"
)

func TestCombosIsTableOne(t *testing.T) {
	combos := Combos()
	if len(combos) != 26 {
		t.Fatalf("Combos() = %d, want 26", len(combos))
	}
	// Count per model.
	perModel := map[ModelKind]int{}
	for _, c := range combos {
		perModel[c.Model]++
	}
	want := map[ModelKind]int{
		ModelARIMA: 6, ModelAE: 6, ModelUSAD: 6, ModelNBEATS: 6, ModelPCBIForest: 2,
	}
	for m, n := range want {
		if perModel[m] != n {
			t.Fatalf("%v has %d combos, want %d", m, perModel[m], n)
		}
	}
	// PCB-iForest only pairs with KSWIN and only SW/ARES.
	for _, c := range combos {
		if c.Model == ModelPCBIForest {
			if c.Task2 != TaskKSWIN {
				t.Fatalf("PCB-iForest with %v", c.Task2)
			}
			if c.Task1 == TaskUniformReservoir {
				t.Fatal("PCB-iForest with URES is not in Table I")
			}
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, c := range combos {
		k := c.String()
		if seen[k] {
			t.Fatalf("duplicate combo %s", k)
		}
		seen[k] = true
	}
}

func TestStringers(t *testing.T) {
	if ModelARIMA.String() != "Online ARIMA" || ModelPCBIForest.String() != "PCB-iForest" ||
		ModelAE.String() != "2-layer AE" || ModelUSAD.String() != "USAD" ||
		ModelNBEATS.String() != "N-BEATS" || ModelVAR.String() != "VAR" {
		t.Fatal("model names")
	}
	if TaskSlidingWindow.String() != "SW" || TaskUniformReservoir.String() != "URES" ||
		TaskAnomalyReservoir.String() != "ARES" {
		t.Fatal("task1 names")
	}
	if TaskMuSigma.String() != "μ/σ" || TaskKSWIN.String() != "KS" || TaskRegular.String() != "regular" {
		t.Fatal("task2 names")
	}
	if ScoreAverage.String() != "Avg" || ScoreLikelihood.String() != "AL" || ScoreRaw.String() != "Raw" {
		t.Fatal("score names")
	}
	c := Combo{Model: ModelUSAD, Task1: TaskSlidingWindow, Task2: TaskMuSigma}
	if c.String() != "USAD/SW/μ/σ" {
		t.Fatalf("combo string = %q", c.String())
	}
	if !strings.Contains(ModelKind(99).String(), "99") {
		t.Fatal("unknown kind stringer")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                          // no channels
		{Channels: 1, Window: 2},    // window too small
		{Channels: 1, TrainSize: 1}, // train too small
		{Channels: 1, ShortWindow: 200, ScoreWindow: 100},           // short ≥ long
		{Channels: 1, Model: ModelVAR, Task1: TaskAnomalyReservoir}, // VAR needs SW
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	det, err := New(Config{Channels: 2, Window: 8, TrainSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := det.Config()
	if cfg.WarmupVectors != 10 || cfg.ScoreWindow != 8 || cfg.ShortWindow < 2 ||
		cfg.Alpha == 0 || cfg.Seed == 0 || cfg.InitEpochs == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

func TestNeuralDefaultsGetMoreInitEpochs(t *testing.T) {
	a, _ := New(Config{Channels: 1, Window: 8, TrainSize: 10, Model: ModelAE})
	if a.Config().InitEpochs < 2 {
		t.Fatalf("AE InitEpochs = %d, want several", a.Config().InitEpochs)
	}
	b, _ := New(Config{Channels: 1, Window: 8, TrainSize: 10, Model: ModelARIMA})
	if b.Config().InitEpochs != 1 {
		t.Fatalf("ARIMA InitEpochs = %d, want 1", b.Config().InitEpochs)
	}
}

func TestDetectorDeterministicWithSeed(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 400, SeriesCount: 1, Seed: 5})
	s := corpus.Series[0]
	run := func() []float64 {
		det, err := New(Config{
			Model: ModelAE, Task1: TaskUniformReservoir, Task2: TaskMuSigma,
			Score: ScoreAverage, Channels: s.Channels(),
			Window: 8, TrainSize: 30, WarmupVectors: 50, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		scores, _ := Run(det, s.Data)
		return scores
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scores diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAllTask2StrategiesRun(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 300, SeriesCount: 1, Seed: 6})
	s := corpus.Series[0]
	for _, t2 := range []Task2{TaskMuSigma, TaskKSWIN, TaskRegular, TaskADWIN} {
		det, err := New(Config{
			Model: ModelARIMA, Task1: TaskSlidingWindow, Task2: t2,
			Score: ScoreAverage, Channels: s.Channels(),
			Window: 8, TrainSize: 30, WarmupVectors: 40, KSCheckEvery: 5,
			RegularInterval: 50, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", t2, err)
		}
		_, valid := Run(det, s.Data)
		any := false
		for _, ok := range valid {
			any = any || ok
		}
		if !any {
			t.Fatalf("%v produced no valid scores", t2)
		}
	}
	// Regular must fine-tune on its cadence.
	det, _ := New(Config{
		Model: ModelARIMA, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreAverage, Channels: s.Channels(),
		Window: 8, TrainSize: 30, WarmupVectors: 40, RegularInterval: 50, Seed: 2,
	})
	Run(det, s.Data)
	if det.FineTunes() == 0 {
		t.Fatal("Regular strategy never fine-tuned")
	}
}

func TestVARWithSlidingWindowWorks(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 300, SeriesCount: 1, Seed: 7})
	s := corpus.Series[0]
	det, err := New(Config{
		Model: ModelVAR, Task1: TaskSlidingWindow, Task2: TaskMuSigma,
		Score: ScoreAverage, Channels: s.Channels(),
		Window: 8, TrainSize: 40, WarmupVectors: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	scores, valid := Run(det, s.Data)
	for i, ok := range valid {
		if ok && (scores[i] < 0 || scores[i] > 1) {
			t.Fatalf("score out of range at %d: %v", i, scores[i])
		}
	}
}
