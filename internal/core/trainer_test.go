package core

import (
	"math"
	"testing"

	"streamad/internal/drift"
)

// meanModel predicts the feature vector shifted by a bias that Fit pulls
// toward the training set's mean, so a fine-tune's result depends on the
// model it starts from and on exactly which rows it sees.
type meanModel struct{ bias float64 }

func (m *meanModel) Predict(x []float64) (target, pred []float64) {
	pred = make([]float64, len(x))
	for i, v := range x {
		pred[i] = v + m.bias
	}
	return x, pred
}

func (m *meanModel) Fit(set [][]float64) {
	var sum float64
	var n int
	for _, row := range set {
		for _, v := range row {
			sum += v
			n++
		}
	}
	m.bias = m.bias/2 + sum/float64(n)/2
}

func (m *meanModel) CloneModel() any { c := *m; return &c }

// fakePool runs a submitted job at once, or — never — leaves it queued
// for the due step to take back.
type fakePool struct {
	never     bool
	submitted int
}

func (p *fakePool) Submit(_ string, run func()) func() bool {
	p.submitted++
	if p.never {
		return func() bool { return true }
	}
	run()
	return func() bool { return false }
}

// fineTuning builds a detector over meanModel that triggers every 5
// vectors, async on pool when one is given.
func fineTuning(t *testing.T, pool TrainerPool) *Detector {
	t.Helper()
	cfg := testConfig(&meanModel{bias: 1}, 2, 1, 8, 8)
	cfg.Drift = drift.NewRegular(5)
	cfg.AsyncFineTune, cfg.TrainerPool = pool != nil, pool
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func wave(i int) []float64 { return []float64{math.Sin(float64(i)*0.3) + float64(i%17)*0.05} }

// TestMinimumLagJobMatchesInPlace: the async job path — clone, copy of
// R_train, submit, adopt at the due step — run at the minimum lag is
// bit-identical to the sync path that trains the live model in place,
// whether the pool trains the job or the due step takes it back.
func TestMinimumLagJobMatchesInPlace(t *testing.T) {
	for _, pool := range []*fakePool{{}, {never: true}} {
		inPlace := fineTuning(t, nil)
		job := fineTuning(t, pool)
		if inPlace.train.pool != nil || inPlace.train.lag != 0 || job.train.lag != adoptLag {
			t.Fatal("sync must train in place at lag 0, async at adoptLag")
		}
		job.train.lag = 0
		for i := 0; i < 200; i++ {
			a, okA := inPlace.Step(wave(i))
			b, okB := job.Step(wave(i))
			if okA != okB || a.FineTuned != b.FineTuned ||
				math.Float64bits(a.Nonconformity) != math.Float64bits(b.Nonconformity) {
				t.Fatalf("never=%v, step %d: %+v/%v in place, %+v/%v through the job path", pool.never, i, a, okA, b, okB)
			}
		}
		if inPlace.FineTunes() < 30 || job.FineTunes() != inPlace.FineTunes() || pool.submitted != job.FineTunes() {
			t.Fatalf("never=%v: %d fine-tunes in place, %d adopted from %d submitted jobs",
				pool.never, inPlace.FineTunes(), job.FineTunes(), pool.submitted)
		}
	}
}

// TestAsyncAdoptsAtTheDueStep pins the position: a trigger at step s is
// adopted by the Step of s+adoptLag and not a step earlier, triggers in
// between are skipped, a job the pool never started is trained by its due
// step (one adopt wait), and Close — which takes the job back from the
// pool — changes no score.
func TestAsyncAdoptsAtTheDueStep(t *testing.T) {
	d, closed := fineTuning(t, &fakePool{never: true}), fineTuning(t, &fakePool{never: true})
	trigger := -1
	for i := 0; i < 200; i++ {
		before := d.FineTunes()
		res, ok := d.Step(wave(i))
		other, _ := closed.Step(wave(i))
		closed.Close()
		if math.Float64bits(res.Nonconformity) != math.Float64bits(other.Nonconformity) {
			t.Fatalf("step %d: Close changed the scores", i)
		}
		switch {
		case ok && res.FineTuned && trigger < 0:
			trigger = d.Steps()
		case trigger >= 0 && d.Steps() < trigger+adoptLag:
			if d.FineTunes() != before || res.FineTuned || !d.FineTuneStats().InFlight {
				t.Fatalf("step %d: adopted or launched %d steps after the trigger at %d", d.Steps(), d.Steps()-trigger, trigger)
			}
		case trigger >= 0:
			st := d.FineTuneStats()
			if d.FineTunes() != before+1 || st.InFlight || st.AdoptWaits != 1 || st.Skipped != adoptLag/5 {
				t.Fatalf("due step %d: %d → %d adopted, stats %+v", d.Steps(), before, d.FineTunes(), st)
			}
			return
		}
	}
	t.Fatal("no fine-tune was ever triggered")
}
