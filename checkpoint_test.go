package streamad

import (
	"bytes"
	"encoding"
	"os"
	"path/filepath"
	"testing"

	"streamad/internal/dataset"
)

// syncCheckpointSpecs are synchronous detectors whose Save bytes are
// pinned under testdata/sync_checkpoints: pipelines over models that can
// clone (the ones async fine-tuning may route elsewhere) and an ensemble
// of two of them, each stepped through fine-tunes.
var syncCheckpointSpecs = map[string]string{
	"ae-regular":  "ae+sw+regular+al",
	"arima-kswin": "arima+ures+kswin+avg",
	"knn-regular": "knn+ares+regular+raw",
	"ensemble":    "ensemble(usad+sw+musigma, arima+sw+regular; agg=median)",
}

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

// TestModelCheckpointRoundTrip trains each model kind briefly, snapshots
// it, restores the snapshot into a freshly built detector and verifies
// both produce identical scores on the same evaluation stream.
func TestModelCheckpointRoundTrip(t *testing.T) {
	corpus := dataset.Daphnet(dataset.Config{Length: 700, SeriesCount: 1, Seed: 13})
	s := corpus.Series[0]
	mk := func() Config {
		return Config{
			Model: ModelAE, Task1: TaskSlidingWindow, Task2: TaskRegular,
			// TaskRegular with a huge interval: no fine-tunes after warmup,
			// so the restored model's scores must match exactly.
			RegularInterval: 1 << 30,
			Score:           ScoreAverage,
			Channels:        s.Channels(), Window: 12, TrainSize: 60,
			WarmupVectors: 80, Seed: 5,
		}
	}
	kinds := []ModelKind{ModelARIMA, ModelARIMAONS, ModelPCBIForest, ModelAE, ModelUSAD, ModelNBEATS, ModelVAR, ModelKNN}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := mk()
			cfg.Model = kind
			trained, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up (train) on the first part of the stream.
			for _, row := range s.Data[:300] {
				trained.Step(row)
			}
			if !trained.WarmedUp() {
				t.Fatal("detector did not warm up")
			}
			snap, err := trained.SaveModel()
			if err != nil {
				t.Fatalf("SaveModel: %v", err)
			}
			if len(snap) == 0 {
				t.Fatal("empty snapshot")
			}

			// The restored detector must skip its own initial fit (the
			// model comes from the snapshot) but still refill its window
			// and training set from the live stream.
			cfg.PreTrained = true
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadModel(snap); err != nil {
				t.Fatalf("LoadModel: %v", err)
			}

			// Drive both detectors through an identical evaluation slice.
			// The restored one becomes ready after its window + warmup
			// refill; from then on the (frozen, identical) models must
			// produce identical nonconformity scores.
			compared := 0
			for i := 300; i < 650; i++ {
				a, okA := trained.Step(s.Data[i])
				b, okB := restored.Step(s.Data[i])
				if !okA || !okB {
					continue
				}
				compared++
				if a.Nonconformity != b.Nonconformity {
					t.Fatalf("nonconformity diverged at %d: %v vs %v", i, a.Nonconformity, b.Nonconformity)
				}
			}
			if compared < 100 {
				t.Fatalf("only %d comparable steps; restored detector never became ready", compared)
			}
		})
	}
}

// TestLoadModelRejectsMismatchedShape verifies a snapshot cannot be
// loaded into a differently-shaped detector.
func TestLoadModelRejectsMismatchedShape(t *testing.T) {
	a, err := New(Config{Model: ModelAE, Channels: 3, Window: 8, TrainSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Model: ModelAE, Channels: 4, Window: 8, TrainSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadModel(snap); err == nil {
		t.Fatal("mismatched-shape load must fail")
	}
	c, err := New(Config{Model: ModelUSAD, Channels: 3, Window: 8, TrainSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadModel(snap); err == nil {
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
