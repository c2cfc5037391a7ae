package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"streamad/internal/drift"
	"streamad/internal/reservoir"
	"streamad/internal/score"
)

// echoModel predicts the feature vector shifted by a constant bias; its
// Fit learns the bias from the training set, so fine-tuning measurably
// changes predictions.
type echoModel struct {
	bias float64
	fits int
}

func (m *echoModel) Predict(x []float64) (target, pred []float64) {
	pred = make([]float64, len(x))
	for i, v := range x {
		pred[i] = v + m.bias
	}
	return x, pred
}

func (m *echoModel) Fit(set [][]float64) {
	m.fits++
	m.bias /= 2 // fine-tuning improves the model
}

// constScorer lets tests observe the raw nonconformity flow.
type constScorer struct{ last float64 }

func (c *constScorer) Score(a float64) float64 { c.last = a; return a }
func (c *constScorer) Reset()                  {}
func (c *constScorer) Name() string            { return "test" }

func testConfig(model Model, w, n, m, warm int) Config {
	return Config{
		Representer:   NewRepresenter(w, n),
		Model:         model,
		TrainingSet:   reservoir.NewSlidingWindow(m, w*n),
		Drift:         drift.NewMuSigmaChange(w * n),
		Measure:       score.Cosine{},
		Scorer:        &constScorer{},
		WarmupVectors: warm,
	}
}

func TestRepresenter(t *testing.T) {
	r := NewRepresenter(3, 2)
	if r.Dim() != 6 || r.Rows() != 3 || r.Channels() != 2 {
		t.Fatal("representer dims")
	}
	if _, ok := r.Push([]float64{1, 2}); ok {
		t.Fatal("not full yet")
	}
	r.Push([]float64{3, 4})
	x, ok := r.Push([]float64{5, 6})
	if !ok {
		t.Fatal("should be full")
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// Next push slides the window.
	x, _ = r.Push([]float64{7, 8})
	if x[0] != 3 || x[5] != 8 {
		t.Fatalf("slid window = %v", x)
	}
}

func TestNewDetectorValidation(t *testing.T) {
	cfg := testConfig(&echoModel{}, 2, 1, 3, 3)
	cfg.Model = nil
	if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("missing model: %v", err)
	}
	cfg = testConfig(&echoModel{}, 2, 1, 3, 3)
	cfg.Measure = nil
	if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
		t.Fatal("predictor without measure must fail")
	}
	cfg = testConfig(&echoModel{}, 2, 1, 3, 3)
	cfg.WarmupVectors = -1
	if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
		t.Fatal("negative warmup must fail")
	}
}

type fitOnlyModel struct{}

func (fitOnlyModel) Fit([][]float64) {}

func TestNewDetectorRejectsScorelessModel(t *testing.T) {
	cfg := testConfig(fitOnlyModel{}, 2, 1, 3, 3)
	if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
		t.Fatal("model without Predict/NonconformityScore must fail")
	}
}

func TestNewDetectorRejectsMeasureWithoutPredictor(t *testing.T) {
	// A self-scoring-only model combined with a nonconformity measure has
	// no prediction pair to measure — the config must be rejected rather
	// than crash at the first Step.
	cfg := testConfig(&selfScoringModel{}, 2, 1, 3, 3)
	if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
		t.Fatal("measure with self-scoring-only model must fail")
	}
}

type selfScoringModel struct{ score float64 }

func (s *selfScoringModel) Fit([][]float64) {}
func (s *selfScoringModel) NonconformityScore(x []float64) float64 {
	return s.score
}

func TestSelfScoringPath(t *testing.T) {
	cfg := testConfig(&selfScoringModel{score: 0.42}, 2, 1, 3, 2)
	cfg.Measure = nil
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var ok bool
	for i := 0; i < 10; i++ {
		res, ok = det.Step([]float64{float64(i)})
	}
	if !ok || res.Nonconformity != 0.42 {
		t.Fatalf("self-scoring result = %+v ok=%v", res, ok)
	}
}

func TestWarmupLifecycle(t *testing.T) {
	model := &echoModel{bias: 1}
	det, err := NewDetector(testConfig(model, 2, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// w−1 = 1 step to fill the window, then 4 warmup vectors.
	steps := 0
	for ; steps < 5; steps++ {
		if _, ok := det.Step([]float64{float64(steps)}); ok {
			t.Fatalf("step %d should still be warming up", steps)
		}
	}
	if !det.WarmedUp() {
		t.Fatal("warmup should have completed")
	}
	if model.fits != 1 {
		t.Fatalf("initial fit count = %d, want 1", model.fits)
	}
	if _, ok := det.Step([]float64{99}); !ok {
		t.Fatal("post-warmup step must produce a result")
	}
	if det.Steps() != 6 {
		t.Fatalf("Steps = %d", det.Steps())
	}
}

func TestInitEpochs(t *testing.T) {
	model := &echoModel{}
	cfg := testConfig(model, 2, 1, 3, 3)
	cfg.InitEpochs = 5
	det, _ := NewDetector(cfg)
	// A constant stream never triggers drift, so only the initial fit runs.
	for i := 0; i < 10; i++ {
		det.Step([]float64{1})
	}
	if model.fits != 5 {
		t.Fatalf("init fits = %d, want 5", model.fits)
	}
}

func TestFineTuneOnDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := &echoModel{bias: 0.5}
	det, err := NewDetector(testConfig(model, 2, 1, 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Stationary warmup around 0.
	i := 0
	for ; i < 40; i++ {
		det.Step([]float64{rng.NormFloat64() * 0.1})
	}
	if !det.WarmedUp() {
		t.Fatal("not warmed up")
	}
	initFits := model.fits
	// Strong level shift → μ/σ drift → fine-tune (possibly more than once
	// while the shift is transiting the training set).
	fineTuned := false
	for ; i < 120; i++ {
		res, ok := det.Step([]float64{10 + rng.NormFloat64()*0.1})
		if ok && res.FineTuned {
			fineTuned = true
		}
	}
	if !fineTuned {
		t.Fatal("drift-driven fine-tune never happened")
	}
	if model.fits <= initFits {
		t.Fatalf("fits = %d, want > %d", model.fits, initFits)
	}
	if det.FineTunes() < 1 {
		t.Fatalf("FineTunes = %d", det.FineTunes())
	}
	if det.DriftOps().Adds == 0 {
		t.Fatal("drift ops should be counted")
	}
}

func TestRunProducesAlignedOutputs(t *testing.T) {
	model := &echoModel{bias: 0.1}
	det, _ := NewDetector(testConfig(model, 3, 2, 5, 5))
	series := make([][]float64, 30)
	for i := range series {
		series[i] = []float64{float64(i), float64(-i)}
	}
	scores, valid := Run(det, series)
	if len(scores) != 30 || len(valid) != 30 {
		t.Fatal("output lengths")
	}
	// First w−1+warmup = 2+5 = 7 steps invalid.
	for i := 0; i < 7; i++ {
		if valid[i] {
			t.Fatalf("step %d should be invalid", i)
		}
	}
	for i := 7; i < 30; i++ {
		if !valid[i] {
			t.Fatalf("step %d should be valid", i)
		}
		if math.IsNaN(scores[i]) {
			t.Fatalf("NaN at %d", i)
		}
	}
}

func TestZeroWarmupStillFitsOnce(t *testing.T) {
	model := &echoModel{}
	cfg := testConfig(model, 2, 1, 3, 0)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.Step([]float64{1})
	det.Step([]float64{2}) // window full; warmup of 0 → immediate fit
	if model.fits != 1 {
		t.Fatalf("fits = %d, want 1 immediate initial fit", model.fits)
	}
}

// TestScratchPreallocated pins the constructor-time allocation of the
// scoring-path scratch: sanitize and attribute used to allocate their
// buffers lazily on first use, which put a make on the hot path. The
// buffers must exist before the first Step, and survive a Load of a
// snapshot with no repair history.
func TestScratchPreallocated(t *testing.T) {
	cfg := testConfig(&echoModel{bias: 1}, 2, 3, 8, 4)
	cfg.Sanitize = true
	cfg.Attribution = true
	cfg.Scorer = score.Raw{} // checkpointable, so the snapshot below works
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.lastGood) != 3 || len(d.sanBuf) != 3 {
		t.Fatalf("sanitize buffers not preallocated: lastGood=%d sanBuf=%d", len(d.lastGood), len(d.sanBuf))
	}
	if len(d.attrBuf) != 3 {
		t.Fatalf("attribution buffer not preallocated: %d", len(d.attrBuf))
	}

	// First sanitize call must repair against the zeroed history without
	// allocating; first attribute call must have its buffer ready.
	out := d.sanitize([]float64{1, math.NaN(), 3})
	if out[1] != 0 {
		t.Fatalf("first-step repair = %v, want last-good default 0", out[1])
	}

	// A snapshot taken before any repair has no LastGood history; loading
	// it must keep the constructor's buffers rather than nil them.
	clean, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := clean.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PageIn(blob); err != nil {
		t.Fatal(err)
	}
	if len(d.lastGood) != 3 || len(d.sanBuf) != 3 {
		t.Fatalf("sanitize buffers lost across Load: lastGood=%d sanBuf=%d", len(d.lastGood), len(d.sanBuf))
	}
}
