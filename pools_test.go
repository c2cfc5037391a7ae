package streamad

import (
	"testing"

	"streamad/internal/core"
)

// TestTrainerPoolMatchesSyncWhenDrained: routing fine-tunes through the
// shared trainer pool, then draining before the next step, must be
// bit-identical to synchronous fine-tuning — the lazy snapshot at
// dequeue sees exactly the state the sync path trains on.
func TestTrainerPoolMatchesSyncWhenDrained(t *testing.T) {
	cfg := Config{
		Model: ModelAE, Task1: TaskSlidingWindow, Task2: TaskRegular,
		Score: ScoreLikelihood, RegularInterval: 25,
		Channels: 2, Window: 6, TrainSize: 24, WarmupVectors: 30, Seed: 5,
	}
	syncDet, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := NewTrainerPool(2)
	defer tp.Close()
	pcfg := cfg
	pcfg.AsyncFineTune = true
	pcfg.TrainerPool = tp
	pcfg.TrainerKey = "s"
	poolDet, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer poolDet.Close()
	if !poolDet.FineTuneStats().Async {
		t.Fatal("pooled detector did not activate the serve/train split")
	}
	buf := make([]float64, 2)
	buf2 := make([]float64, 2)
	for step := 0; step < 400; step++ {
		rs, oks := syncDet.Step(syntheticVec(buf, step))
		rp, okp := poolDet.Step(syntheticVec(buf2, step))
		poolDet.WaitFineTune()
		if oks != okp {
			t.Fatalf("step %d: readiness diverged (sync %v, pool %v)", step, oks, okp)
		}
		if rs.Score != rp.Score || rs.Nonconformity != rp.Nonconformity {
			t.Fatalf("step %d: drained pool fine-tune diverged from sync: score %v vs %v",
				step, rs.Score, rp.Score)
		}
	}
	if s, p := syncDet.FineTunes(), poolDet.FineTunes(); s != p || s == 0 {
		t.Fatalf("fine-tune counts diverged: sync %d, pool %d (want equal and nonzero)", s, p)
	}
	// Draining right after each step usually wins the cancel race and runs
	// the job inline, so the work shows up as canceled rather than
	// completed — either way it flowed through the pool.
	if ts := tp.Stats(); ts.Completed+ts.Canceled == 0 {
		t.Fatalf("no fine-tune ever passed through the trainer pool: %+v", ts)
	}
}

// TestTrainerPoolConcurrentStreams: many detectors sharing one trainer
// pool under load — no drain between steps — must stay finite and
// eventually adopt trained models; Close must settle everything.
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
	launched := false
	for step := 0; step < 600; step++ {
		for _, d := range dets {
			d.Step(syntheticVec(buf, step))
		}
	}
	for _, d := range dets {
		d.Close()
		st := d.FineTuneStats()
		if st.Launched > 0 {
			launched = true
		}
		if st.InFlight {
			t.Fatal("Close left a fine-tune in flight")
		}
	}
	if !launched {
		t.Fatal("no detector ever launched a pooled fine-tune")
	}
	ts := tp.Stats()
	if ts.Completed+ts.Canceled == 0 {
		t.Fatalf("trainer pool saw no work: %+v", ts)
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
