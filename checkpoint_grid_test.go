package streamad

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamad/internal/core"
	"streamad/internal/persist"
)

// gridStream is a deterministic two-regime stream: noisy sinusoids whose
// level and scale shift halfway through, so the drift detectors fire and
// fine-tunes happen on both sides of a checkpoint.
func gridStream(n, channels int) [][]float64 {
	rng := rand.New(rand.NewSource(42))
	out := make([][]float64, n)
	for t := range out {
		row := make([]float64, channels)
		for c := range row {
			row[c] = math.Sin(float64(t)/(5+float64(c))) + 0.2*rng.NormFloat64()
			if t > n/2 {
				row[c] = 3 + 2*row[c]
			}
		}
		out[t] = row
	}
	return out
}

// gridConfig is a deliberately small geometry: every combination warms up
// and fine-tunes within a few dozen vectors.
func gridConfig() Config {
	return Config{
		Channels: 2, Window: 6, TrainSize: 16, WarmupVectors: 24,
		ScoreWindow: 16, ShortWindow: 4, RegularInterval: 40, KSCheckEvery: 5, Seed: 3,
	}
}

const (
	gridBefore = 90  // vectors consumed before the checkpoint
	gridAfter  = 200 // vectors compared after it
)

// sameResult compares two step results bit for bit (NaN-safe).
func sameResult(a, b Result, okA, okB bool) bool {
	return okA == okB && a.FineTuned == b.FineTuned && a.Source == b.Source &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Nonconformity) == math.Float64bits(b.Nonconformity)
}

// requirePrefixesFail feeds every strict prefix of blob (every stride-th
// one when the blob is long) to load and requires an error each time. A
// panic fails the test by itself.
func requirePrefixesFail(t *testing.T, what string, blob []byte, stride int, load func([]byte) error) {
	t.Helper()
	for n := 0; n < len(blob); n++ {
		if n%stride != 0 && n < len(blob)-16 {
			continue
		}
		if err := load(blob[:n]); err == nil {
			t.Fatalf("%s accepted a %d-byte prefix of a %d-byte blob", what, n, len(blob))
		}
	}
}

// checkRoundTrip is the checkpoint contract, applied to one detector
// blueprint: Save → Load into a fresh detector → Save is byte-identical;
// PageOut → PageIn → PageOut likewise and leaves the full state
// untouched; every strict prefix of either blob is refused; and the
// restored detector's next gridAfter results equal the uninterrupted
// detector's bit for bit.
func checkRoundTrip(t *testing.T, mk func() (StreamDetector, error), stride int) {
	t.Helper()
	stream := gridStream(gridBefore+gridAfter, 2)
	build := func() StreamDetector {
		d, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	live := build()
	for _, v := range stream[:gridBefore] {
		live.Step(v)
	}
	blob, err := live.Save()
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored := build()
	if err := restored.Load(blob); err != nil {
		t.Fatalf("Load: %v", err)
	}
	again, err := restored.Save()
	if err != nil {
		t.Fatalf("second Save: %v", err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("Save → Load → Save changed the blob (%d vs %d bytes)", len(blob), len(again))
	}

	scratch := build()
	requirePrefixesFail(t, "Load", blob, stride, scratch.Load)
	// A receiver that refused every prefix still takes the whole blob.
	if err := scratch.Load(blob); err != nil {
		t.Fatalf("Load after refused prefixes: %v", err)
	}
	if after, err := scratch.Save(); err != nil || !bytes.Equal(blob, after) {
		t.Fatalf("Load after refused prefixes saves different bytes (err %v)", err)
	}

	if pager, ok := restored.(core.Pager); ok {
		page, err := pager.PageOut()
		if err != nil {
			t.Fatalf("PageOut: %v", err)
		}
		requirePrefixesFail(t, "PageIn", page, stride, pager.PageIn)
		if err := pager.PageIn(page); err != nil {
			t.Fatalf("PageIn: %v", err)
		}
		page2, err := pager.PageOut()
		if err != nil {
			t.Fatalf("second PageOut: %v", err)
		}
		if !bytes.Equal(page, page2) {
			t.Fatalf("PageOut → PageIn → PageOut changed the page (%d vs %d bytes)", len(page), len(page2))
		}
		if err := pager.PageIn(page2); err != nil {
			t.Fatalf("second PageIn: %v", err)
		}
		if after, err := restored.Save(); err != nil || !bytes.Equal(blob, after) {
			t.Fatalf("a page-out/page-in cycle changed the full checkpoint (err %v)", err)
		}
	}

	tunesAtSave := live.FineTunes()
	for i, v := range stream[gridBefore:] {
		a, okA := live.Step(v)
		b, okB := restored.Step(v)
		if !sameResult(a, b, okA, okB) {
			t.Fatalf("diverged %d vectors after the checkpoint: live %+v/%v, restored %+v/%v", i, a, okA, b, okB)
		}
	}
	if live.FineTunes() != restored.FineTunes() {
		t.Fatalf("fine-tune counts diverged: %d vs %d", live.FineTunes(), restored.FineTunes())
	}
	if live.FineTunes() == tunesAtSave {
		t.Log("no fine-tune after the checkpoint")
	}
}

// TestCheckpointRoundTripGrid runs the checkpoint contract over the full
// model × Task 1 × Task 2 × score grid (the first combination of every
// model checks every prefix, the rest a stride of them), plus ensembles
// and cascades that compose pipelines into one buffer.
func TestCheckpointRoundTripGrid(t *testing.T) {
	models := []ModelKind{ModelARIMA, ModelARIMAONS, ModelPCBIForest, ModelAE, ModelUSAD, ModelNBEATS, ModelVAR, ModelKNN}
	task1s := []Task1{TaskSlidingWindow, TaskUniformReservoir, TaskAnomalyReservoir}
	task2s := []Task2{TaskMuSigma, TaskKSWIN, TaskRegular, TaskADWIN}
	scores := []ScoreKind{ScoreAverage, ScoreLikelihood, ScoreRaw}
	for _, m := range models {
		first := true
		for _, t1 := range task1s {
			if m == ModelVAR && t1 != TaskSlidingWindow {
				continue // VAR requires ordered training rows
			}
			for _, t2 := range task2s {
				for _, sc := range scores {
					cfg := gridConfig()
					cfg.Model, cfg.Task1, cfg.Task2, cfg.Score = m, t1, t2, sc
					stride := 61
					if first {
						stride, first = 1, false
					}
					t.Run(fmt.Sprintf("%v+%v+%v+%v", m, t1, t2, sc), func(t *testing.T) {
						checkRoundTrip(t, func() (StreamDetector, error) { return New(cfg) }, stride)
					})
				}
			}
		}
	}
	for _, spec := range []string{
		"ensemble(arima+sw+musigma, knn+ures+kswin, pcb+ares+regular; agg=perf, prune=-8)",
		"ensemble(usad+sw+musigma, nbeats+sw+musigma; agg=mean)",
		"cascade(hampel, ensemble(arima+sw+kswin, knn+ares+regular; agg=median); admit=0.2, calib=32, gatewin=8)",
		"cascade(density, pcb+sw+musigma; admit=0.3, calib=16, gatewin=12)",
		"cascade(ewma, knn+sw+adwin+al)",
		"zscore",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			checkRoundTrip(t, func() (StreamDetector, error) { return NewFromSpec(spec, gridConfig()) }, 7)
		})
	}
	t.Run("async mid-job", func(t *testing.T) {
		// Checkpointed 90 vectors in, while the fine-tune triggered at 69
		// is pending (due at 101): the envelope ends in its trained model,
		// and both detectors adopt it at the same step.
		mk := func() (StreamDetector, error) { return NewFromSpec("ae+sw+regular+al+async", gridConfig()) }
		probe, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range gridStream(gridBefore, 2) {
			probe.Step(v)
		}
		if !probe.(*Detector).FineTuneStats().InFlight {
			t.Fatal("no fine-tune pending at the checkpoint")
		}
		checkRoundTrip(t, mk, 7)
	})
	t.Run("sanitize", func(t *testing.T) {
		cfg := gridConfig()
		cfg.Model, cfg.Sanitize = ModelKNN, true
		checkRoundTrip(t, func() (StreamDetector, error) { return New(cfg) }, 1)
	})
}

// TestRefusedLoadLeavesStateAlone: a checkpoint refused for a
// configuration mismatch — the leaf's fingerprint, a cascade's member
// layout, a tier-0 header — is refused before any state is touched, so
// the receiver saves exactly what it saved before. Ensembles are not
// covered: members load in order, so a refused member leaves the
// earlier ones loaded.
func TestRefusedLoadLeavesStateAlone(t *testing.T) {
	stream := gridStream(gridBefore, 2)
	for _, tc := range []struct{ receiver, blob string }{
		{"arima+ures+musigma", "arima+sw+musigma"},
		{"pcb+sw+kswin", "pcb+sw+regular"},
		{"cascade(zscore, knn+sw+musigma)", "cascade(zscore, arima+sw+musigma)"},
		{"hampel", "zscore"},
	} {
		build := func(spec string) StreamDetector {
			d, err := NewFromSpec(spec, gridConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range stream {
				d.Step(v)
			}
			return d
		}
		recv, src := build(tc.receiver), build(tc.blob)
		before, err := recv.Save()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := src.Save()
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Load(blob); err == nil {
			t.Fatalf("%s accepted a %s checkpoint", tc.receiver, tc.blob)
		}
		if after, err := recv.Save(); err != nil || !bytes.Equal(before, after) {
			t.Errorf("%s: a refused %s checkpoint changed the saved state (err %v)", tc.receiver, tc.blob, err)
		}
	}
}

// TestNBEATSRefusesAnotherBlockBasis pins the N-BEATS block-basis word:
// every block of the generic model writes 0 after its model header and
// scaler section, and a checkpoint whose first block carries any other
// value is refused without touching the receiver.
func TestNBEATSRefusesAnotherBlockBasis(t *testing.T) {
	cfg := gridConfig()
	det, err := NewFromSpec("nbeats+sw+musigma", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range gridStream(gridBefore, cfg.Channels) {
		det.Step(v)
	}
	before, err := det.Save()
	if err != nil {
		t.Fatal(err)
	}
	// The model walk opens with (channels, backcast rows, blocks) and the
	// scaler's section; the first block's basis word follows.
	var header []byte
	for _, v := range []int{cfg.Channels, cfg.Window - 1, 3} {
		header = binary.LittleEndian.AppendUint64(header, uint64(v))
	}
	at := bytes.Index(before, header)
	if at < 0 {
		t.Fatal("no N-BEATS model header in the checkpoint")
	}
	at += len(header)
	at += 8 + int(binary.LittleEndian.Uint64(before[at:]))
	if got := binary.LittleEndian.Uint64(before[at:]); got != 0 {
		t.Fatalf("first block-basis word is %d, want 0", got)
	}
	blob := bytes.Clone(before)
	binary.LittleEndian.PutUint64(blob[at:], 1)
	if err := det.Load(blob); err == nil {
		t.Fatal("Load accepted a block-basis word of 1")
	}
	if after, err := det.Save(); err != nil || !bytes.Equal(before, after) {
		t.Errorf("a refused checkpoint changed the saved state (err %v)", err)
	}
}

// TestCheckpointAllocBudget pins the encoder's allocation behaviour so
// the gob-era amplification (thousands of allocations and 17× the state
// size in garbage per Save) cannot come back unnoticed: a warmed-up leaf
// pipeline's Save is the one result buffer plus at most one incidental
// allocation, and rendering a snapshot file is exactly the file buffer.
func TestCheckpointAllocBudget(t *testing.T) {
	stream := gridStream(gridBefore, 2)
	for _, m := range []ModelKind{ModelARIMA, ModelARIMAONS, ModelPCBIForest, ModelAE, ModelUSAD, ModelNBEATS, ModelVAR, ModelKNN} {
		cfg := gridConfig()
		cfg.Model = m
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range stream {
			det.Step(v)
		}
		var blob []byte
		if got := testing.AllocsPerRun(20, func() {
			if blob, err = det.Save(); err != nil {
				t.Fatal(err)
			}
		}); got > 2 {
			t.Errorf("%v: Save allocates %v times per call, budget 2", m, got)
		}
		snap := &persist.StreamSnapshot{ID: "budget", Seq: 90, Detector: blob, Threshold: make([]byte, 200), Ready: 60, Alerts: 1}
		if got := testing.AllocsPerRun(20, func() {
			if _, err := persist.EncodeSnapshotFile(snap); err != nil {
				t.Fatal(err)
			}
		}); got > 1 {
			t.Errorf("%v: EncodeSnapshotFile allocates %v times per call, budget 1", m, got)
		}
	}
}
