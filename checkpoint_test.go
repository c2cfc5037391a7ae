package streamad

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"streamad/internal/core"
	"streamad/internal/dataset"
	"streamad/internal/wire"
)

// syncCheckpointSpecs are synchronous detectors whose Save bytes are
// pinned under testdata/sync_checkpoints, each stepped through
// fine-tunes: every model kind, every drift detector, every scorer, an
// ensemble and a cascade behind each tier-0 gate. A blob larger than
// pinFileLimit is pinned by the SHA-256 in name.sha256 instead of by
// its bytes in name.bin.
var syncCheckpointSpecs = map[string]string{
	"ae-regular":      "ae+sw+regular+al",
	"arima-kswin":     "arima+ures+kswin+avg",
	"knn-regular":     "knn+ares+regular+raw",
	"pcb-regular":     "pcb+sw+regular+raw",
	"ensemble":        "ensemble(usad+sw+musigma, arima+sw+regular; agg=median)",
	"nbeats-adwin":    "nbeats+sw+adwin+avg",
	"var-regular":     "var+sw+regular+al",
	"arima-ons":       "arima-ons+ures+regular",
	"cascade-density": "cascade(density, var+sw+regular)",
	"cascade-hampel":  "cascade(hampel, nbeats+ares+regular+al)",
	"cascade-ewma":    "cascade(ewma, knn+sw+adwin; admit=0.5, calib=8)",
}

// pinFileLimit is the largest blob TestSyncSaveMatchesPinnedBytes keeps
// byte for byte.
const pinFileLimit = 64 << 10

// TestSyncSaveMatchesPinnedBytes: a synchronous detector's checkpoint is
// byte-for-byte the one the pinned blobs were captured from, after
// warm-up and drift-triggered fine-tunes. After an intended format
// change, `go test -run TestSyncSaveMatchesPinnedBytes -update .`
// rewrites the blobs.
func TestSyncSaveMatchesPinnedBytes(t *testing.T) {
	stream := gridStream(gridBefore, 2)
	for name, spec := range syncCheckpointSpecs {
		det, err := NewFromSpec(spec, gridConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range stream {
			det.Step(v)
		}
		if det.FineTunes() == 0 {
			t.Fatalf("%s: no fine-tune in %d steps; the pin would not cover one", spec, gridBefore)
		}
		blob, err := det.Save()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "sync_checkpoints", name+".bin")
		if len(blob) > pinFileLimit {
			sum := sha256.Sum256(blob)
			path = filepath.Join("testdata", "sync_checkpoints", name+".sha256")
			blob = []byte(hex.EncodeToString(sum[:]) + "\n")
		}
		if *updateDigests {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test -run TestSyncSaveMatchesPinnedBytes -update .)", err)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s: Save wrote %d bytes that differ from the pinned %d", spec, len(blob), len(want))
		}
	}
}

// TestModelCheckpointRoundTrip pins the contract every copy of a model
// rests on — an async fine-tune's job, a restored pending job, Figure 1's
// frozen model: a blank model built from the detector's configuration and
// loaded with a trained model's checkpoint re-encodes to the same bytes,
// predicts (or self-scores) bit-identically, and trains to the same bytes.
func TestModelCheckpointRoundTrip(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 700, SeriesCount: 1, Seed: 13})
	s := corpus.Series[0]
	kinds := []ModelKind{ModelARIMA, ModelARIMAONS, ModelPCBIForest, ModelAE, ModelUSAD, ModelNBEATS, ModelVAR, ModelKNN}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			trained, err := New(Config{
				Model: kind, Task1: TaskSlidingWindow, Task2: TaskRegular, RegularInterval: 40,
				Channels: s.Channels(), Window: 12, TrainSize: 60, WarmupVectors: 80, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range s.Data[:300] {
				trained.Step(row)
			}
			if trained.FineTunes() == 0 {
				t.Fatal("no fine-tune before the copy; the pin would not cover one")
			}
			live := trained.Model()
			blob := encodeModel(t, live)
			blank, err := buildModel(trained.Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.Decode(blob, blank.(wire.Walker)); err != nil {
				t.Fatalf("loading the checkpoint into a blank model: %v", err)
			}
			if !bytes.Equal(encodeModel(t, blank), blob) {
				t.Fatal("the loaded model re-encodes to different bytes")
			}

			// Both models see the same windows of the rest of the stream;
			// PCB-iForest's counters move as it scores, on both sides.
			rep := core.NewRepresenter(12, s.Channels())
			var windows [][]float64
			for i := 300; i < 650; i++ {
				x, ok := rep.Push(s.Data[i])
				if !ok {
					continue
				}
				windows = append(windows, append([]float64(nil), x...))
				if a, ok := live.(core.SelfScoring); ok {
					got, want := blank.(core.SelfScoring).NonconformityScore(x), a.NonconformityScore(x)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("row %d: the copy scores %v, the live model %v", i, got, want)
					}
					continue
				}
				_, want := live.(core.Predictor).Predict(x)
				want = append([]float64(nil), want...)
				_, got := blank.(core.Predictor).Predict(x)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("row %d: the copy predicts %v, the live model %v", i, got[j], want[j])
					}
				}
			}
			set := windows[len(windows)-60:]
			live.Fit(set)
			blank.Fit(set)
			if !bytes.Equal(encodeModel(t, blank), encodeModel(t, live)) {
				t.Fatal("the copy and the live model trained to different bytes")
			}
		})
	}
}

// encodeModel returns m's checkpoint.
func encodeModel(t *testing.T, m core.Model) []byte {
	t.Helper()
	b, err := wire.Append(nil, m.(wire.Walker))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadModelRejectsMismatchedShape: the model codec refuses a
// checkpoint of another shape or another model kind.
func TestLoadModelRejectsMismatchedShape(t *testing.T) {
	model := func(kind ModelKind, channels int) core.Model {
		t.Helper()
		d, err := New(Config{Model: kind, Channels: channels, Window: 8, TrainSize: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return d.Model()
	}
	snap := encodeModel(t, model(ModelAE, 3))
	if err := wire.Decode(snap, model(ModelAE, 4).(wire.Walker)); err == nil {
		t.Fatal("mismatched-shape load must fail")
	}
	if err := wire.Decode(snap, model(ModelUSAD, 3).(wire.Walker)); err == nil {
		t.Fatal("cross-model load must fail")
	}
}

// TestDetectorSaveLoadRoundTrip is the full-detector counterpart of the
// model round-trip above, and a strictly stronger guarantee: Save/Load
// captures the window, training set, drift reference, scorer and RNG
// position, so the restored detector needs no refill and must emit scores
// identical to the uninterrupted run from the very next vector — even
// though fine-tunes keep firing (small Regular interval) and the ARES
// training set keeps drawing from the checkpointed RNG.
func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	// Save/Load is the only full-state pair: the embedded framework loop's
	// window-only codec must not surface on the leaf under the standard
	// library's names, where a generic encoder would pick it up and
	// silently drop the model, the fingerprint and the RNG position.
	var leaf any = (*Detector)(nil)
	if _, ok := leaf.(encoding.BinaryMarshaler); ok {
		t.Error("*Detector satisfies encoding.BinaryMarshaler: the loop's partial codec was promoted")
	}
	if _, ok := leaf.(encoding.BinaryUnmarshaler); ok {
		t.Error("*Detector satisfies encoding.BinaryUnmarshaler: the loop's partial codec was promoted")
	}
	corpus := dataset.Daphnet(dataset.Config{Length: 700, SeriesCount: 1, Seed: 13})
	s := corpus.Series[0]
	kinds := []ModelKind{ModelARIMA, ModelARIMAONS, ModelPCBIForest, ModelAE, ModelUSAD, ModelNBEATS, ModelVAR, ModelKNN}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{
				Model: kind, Task1: TaskAnomalyReservoir, Task2: TaskRegular,
				RegularInterval: 100, // fine-tunes keep happening after restore
				Score:           ScoreLikelihood,
				Channels:        s.Channels(), Window: 12, TrainSize: 60,
				WarmupVectors: 80, Seed: 5,
			}
			if kind == ModelVAR {
				cfg.Task1 = TaskSlidingWindow // VAR requires ordered training rows
			}
			live, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range s.Data[:300] {
				live.Step(row)
			}
			snap, err := live.Save()
			if err != nil {
				t.Fatalf("Save: %v", err)
			}

			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Load(snap); err != nil {
				t.Fatalf("Load: %v", err)
			}
			if restored.Steps() != live.Steps() {
				t.Fatalf("restored steps %d, live steps %d", restored.Steps(), live.Steps())
			}

			tunesAtSave := live.FineTunes()
			for i := 300; i < 650; i++ {
				a, okA := live.Step(s.Data[i])
				b, okB := restored.Step(s.Data[i])
				if okA != okB {
					t.Fatalf("readiness diverged at %d: %v vs %v", i, okA, okB)
				}
				if !okA {
					continue
				}
				if a.Score != b.Score || a.Nonconformity != b.Nonconformity || a.FineTuned != b.FineTuned {
					t.Fatalf("diverged at step %d: live (s=%v n=%v ft=%v) restored (s=%v n=%v ft=%v)",
						i, a.Score, a.Nonconformity, a.FineTuned, b.Score, b.Nonconformity, b.FineTuned)
				}
			}
			if live.FineTunes() == tunesAtSave {
				t.Fatal("evaluation slice triggered no fine-tunes; the test is too weak")
			}
			if live.FineTunes() != restored.FineTunes() {
				t.Fatalf("fine-tune counts diverged: %d vs %d", live.FineTunes(), restored.FineTunes())
			}
		})
	}
}

// TestDetectorLoadRejectsMismatch verifies configuration fingerprinting
// and corruption handling on the full-detector snapshot.
func TestDetectorLoadRejectsMismatch(t *testing.T) {
	base := Config{Model: ModelKNN, Channels: 3, Window: 8, TrainSize: 20, WarmupVectors: 10, Seed: 1}
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}

	other := base
	other.Seed = 2
	b, _ := New(other)
	if err := b.Load(snap); err == nil {
		t.Fatal("snapshot with different seed must be rejected")
	}
	other = base
	other.Model = ModelAE
	c, _ := New(other)
	if err := c.Load(snap); err == nil {
		t.Fatal("snapshot for a different model must be rejected")
	}

	d, _ := New(base)
	if err := d.Load(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot must be rejected")
	}
	garbage := append([]byte(nil), snap...)
	for i := range garbage {
		garbage[i] ^= 0xA5
	}
	if err := d.Load(garbage); err == nil {
		t.Fatal("corrupt snapshot must be rejected")
	}
}

// TestRestoreMidFineTune: a checkpoint taken while an asynchronous
// fine-tune is pending carries the trained model and its due step, so a
// fresh detector loaded from it adopts that model at the same step as an
// uninterrupted twin and scores bit-identically through that and the
// fine-tunes after it. The job is still queued when Save runs (the pool's
// only slot is held), so Save trains it.
func TestRestoreMidFineTune(t *testing.T) {
	held := NewTrainerPool(1)
	release := make(chan struct{})
	held.Submit(func() { <-release }, nil)
	defer func() { close(release); held.Close() }()
	cfg := asyncConfig()
	cfg.TrainerPool = held
	build := func() *Detector {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	twin, live := build(), build()
	buf := make([]float64, 2)
	step := 0
	for ; !live.FineTuneStats().InFlight || step < 120; step++ {
		twin.Step(syntheticVec(buf, step))
		live.Step(syntheticVec(buf, step))
	}
	blob, err := live.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.Load(blob); err != nil {
		t.Fatal(err)
	}
	if again, err := restored.Save(); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("Save → Load → Save changed a checkpoint with a pending fine-tune (err %v)", err)
	}
	if !restored.FineTuneStats().InFlight {
		t.Fatal("the restored detector has no pending fine-tune")
	}
	adoptedAt := -1
	for end := step + 200; step < end; step++ {
		want, wantOK := twin.Step(syntheticVec(buf, step))
		before := restored.FineTunes()
		got, ok := restored.Step(syntheticVec(buf, step))
		if !sameResult(want, got, wantOK, ok) {
			t.Fatalf("step %d: restored %+v/%v, twin %+v/%v", step, got, ok, want, wantOK)
		}
		if adoptedAt < 0 && restored.FineTunes() > before {
			adoptedAt = step
		}
	}
	if adoptedAt < 0 || step-adoptedAt < 2*32 || twin.FineTunes() != restored.FineTunes() {
		t.Fatalf("the pending fine-tune was adopted at step %d of %d (twin %d fine-tunes, restored %d)",
			adoptedAt, step, twin.FineTunes(), restored.FineTunes())
	}
}
