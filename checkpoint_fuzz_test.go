package streamad

import (
	"bytes"
	"testing"

	"streamad/internal/wire/wiretest"
)

// fuzzSpecs are the detector blueprints FuzzDetectorLoad decodes into,
// indexed by its first argument: a self-scoring model with its own RNG
// and pointer-linked trees, a forecaster over a sampled training set,
// an ensemble composing two pipelines into one buffer, a tier-0 leaf,
// a cascade composing a tier-0 gate, a conformal window and a pipeline,
// an async pipeline whose seed is taken with a fine-tune pending, so
// the envelope ends in the trained model, then the decoders none of those
// reach: an ensemble of USAD, VAR and ARIMA-ONS over ADWIN, Regular and
// KSWIN, a cascade behind each other tier-0 gate, and a bare Hampel
// leaf. New blueprints are appended: a seed's kind byte is its index.
var fuzzSpecs = []string{
	"pcb+sw+musigma",
	"arima+ures+kswin",
	"ensemble(arima+sw+musigma, knn+ares+regular; agg=perf, prune=-8)",
	"zscore",
	"cascade(zscore, knn+sw+musigma; admit=0.1, calib=32, gatewin=8)",
	"arima+sw+regular+raw+async",
	"ensemble(usad+sw+adwin+al, var+sw+regular, arima-ons+ures+kswin; agg=median)",
	"cascade(density, ae+sw+musigma+al; admit=0.2, calib=16, gatewin=4)",
	"cascade(ewma, knn+sw+adwin)",
	"hampel",
}

// fuzzDetector builds blueprint kind at a geometry small enough that a
// seed checkpoint is a few kilobytes.
func fuzzDetector(t testing.TB, kind byte) StreamDetector {
	det, err := NewFromSpec(fuzzSpecs[int(kind)%len(fuzzSpecs)], Config{
		Channels: 2, Window: 4, TrainSize: 8, WarmupVectors: 6,
		ScoreWindow: 8, ShortWindow: 2, RegularInterval: 10, KSCheckEvery: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestFuzzSeedCorpus keeps the committed FuzzDetectorLoad seeds current:
// one warmed-up, fine-tuned checkpoint per blueprint.
func TestFuzzSeedCorpus(t *testing.T) {
	stream := gridStream(60, 2)
	for kind, name := range []string{"pcb", "arima", "ensemble", "zscore", "cascade", "async",
		"ensemble-models", "cascade-density", "cascade-ewma", "hampel"} {
		det := fuzzDetector(t, byte(kind))
		for _, v := range stream {
			det.Step(v)
		}
		if name == "async" && !det.(*Detector).FineTuneStats().InFlight {
			t.Fatal("the async seed must be taken with a fine-tune pending")
		}
		blob, err := det.Save()
		if err != nil {
			t.Fatal(err)
		}
		wiretest.Seed(t, "FuzzDetectorLoad", name, byte(kind), blob)
	}
}

// FuzzDetectorLoad: Load never panics on any input, and a blob it
// accepts is exactly what the detector then saves — the decoder reads no
// value it does not also write back. Seeds: testdata/fuzz.
func FuzzDetectorLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		det := fuzzDetector(t, kind)
		if err := det.Load(data); err != nil {
			return
		}
		again, err := det.Save()
		if err != nil {
			t.Fatalf("Save after an accepted Load: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d-byte blob re-encodes differently (%d bytes)", len(data), len(again))
		}
	})
}
