package streamad

import (
	"testing"

	"streamad/internal/core"
)

// TestTrainerPoolConcurrentStreams: many detectors sharing one trainer
// pool under load must stay finite and adopt trained models; Close must
// release every pending job from the pool.
func TestTrainerPoolConcurrentStreams(t *testing.T) {
	tp := NewTrainerPool(2)
	defer tp.Close()
	const nDet = 4
	dets := make([]*Detector, nDet)
	for i := range dets {
		d, err := New(Config{
			Model: ModelUSAD, Task1: TaskSlidingWindow, Task2: TaskRegular,
			Score: ScoreLikelihood, RegularInterval: 20,
			Channels: 2, Window: 6, TrainSize: 32, WarmupVectors: 40,
			Seed: int64(7 + i), AsyncFineTune: true,
			TrainerPool: tp, TrainerKey: string(rune('a' + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		dets[i] = d
	}
	buf := make([]float64, 2)
	for step := 0; step < 600; step++ {
		for _, d := range dets {
			d.Step(syntheticVec(buf, step))
		}
	}
	for _, d := range dets {
		d.Close()
		if d.FineTuneStats().Launched == 0 || d.FineTunes() == 0 {
			t.Fatalf("a detector adopted no pooled fine-tune: %+v", d.FineTuneStats())
		}
	}
	if ts := tp.Stats(); ts.Queued != 0 || ts.Completed == 0 {
		t.Fatalf("after Close the pool still queues jobs, or it never trained one: %+v", ts)
	}
}

// TestDetectorPageRoundTrip: PageOut/PageIn around continued stepping
// must be invisible in the scores, and Step on a paged detector must
// panic loudly rather than scoring garbage.
func TestDetectorPageRoundTrip(t *testing.T) {
	cfg := Config{
		Model: ModelARIMA, Task1: TaskSlidingWindow, Task2: TaskMuSigma,
		Score: ScoreLikelihood, Channels: 2, Window: 8, TrainSize: 16,
		WarmupVectors: 16, Seed: 3,
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 2)
	buf2 := make([]float64, 2)
	for step := 0; step < 200; step++ {
		if step%50 == 25 {
			blob, err := paged.PageOut()
			if err != nil {
				t.Fatalf("step %d: PageOut: %v", step, err)
			}
			if !paged.Paged() {
				t.Fatal("Paged() false after PageOut")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Step on a paged detector did not panic")
					}
				}()
				paged.Step(syntheticVec(buf2, step))
			}()
			if err := paged.PageIn(blob); err != nil {
				t.Fatalf("step %d: PageIn: %v", step, err)
			}
		}
		rr, okr := ref.Step(syntheticVec(buf, step))
		rp, okp := paged.Step(syntheticVec(buf2, step))
		if okr != okp || rr.Score != rp.Score || rr.Nonconformity != rp.Nonconformity {
			t.Fatalf("step %d: paging changed the scores: (%v,%v) vs (%v,%v)",
				step, rr.Score, okr, rp.Score, okp)
		}
	}
	if _, err := paged.PageOut(); err != nil {
		t.Fatal(err)
	}
	if _, err := paged.PageOut(); err == nil {
		t.Fatal("double PageOut did not error")
	}
}

// TestEnsemblePageRoundTrip: the composed page set must restore every
// member bit-identically — for an ensemble, and for a cascade whose heavy
// member is that ensemble, where the walk goes down two levels of
// Children() past a gate that stays resident.
func TestEnsemblePageRoundTrip(t *testing.T) {
	const members = "arima+sw+musigma+raw, ae+sw+regular+al; agg=mean"
	for _, spec := range []string{
		"ensemble(" + members + ")",
		"cascade(zscore, ensemble(" + members + "); admit=0.2, calib=16, gatewin=8)",
	} {
		t.Run(spec, func(t *testing.T) {
			base := Config{Channels: 2, Window: 6, TrainSize: 24, WarmupVectors: 30, Seed: 13}
			ref, err := NewFromSpec(spec, base)
			if err != nil {
				t.Fatal(err)
			}
			paged, err := NewFromSpec(spec, base)
			if err != nil {
				t.Fatal(err)
			}
			// requirePaged checks every pageable node of the tree.
			var requirePaged func(n StreamDetector, want bool)
			requirePaged = func(n StreamDetector, want bool) {
				if p, ok := n.(core.Pager); ok && p.Paged() != want {
					t.Fatalf("%T: Paged() = %v, want %v", n, p.Paged(), want)
				}
				for _, child := range n.Children() {
					requirePaged(child, want)
				}
			}
			buf := make([]float64, 2)
			buf2 := make([]float64, 2)
			for step := 0; step < 150; step++ {
				if step == 80 {
					blob, err := paged.(core.Pager).PageOut()
					if err != nil {
						t.Fatal(err)
					}
					requirePaged(paged, true)
					if err := paged.(core.Pager).PageIn(blob); err != nil {
						t.Fatal(err)
					}
					requirePaged(paged, false)
				}
				rr, okr := ref.Step(syntheticVec(buf, step))
				rp, okp := paged.Step(syntheticVec(buf2, step))
				if okr != okp || rr.Score != rp.Score || rr.Source != rp.Source {
					t.Fatalf("step %d: paging changed the scores", step)
				}
			}
		})
	}
}
