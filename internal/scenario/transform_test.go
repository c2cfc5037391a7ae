package scenario_test

import (
	"math"
	"testing"

	"streamad/internal/scenario"
)

// compose wraps a fresh seeded gauss generator in the given transforms.
func compose(t *testing.T, seed int64, trs ...scenario.Transform) scenario.Stream {
	t.Helper()
	return wrap(t, mustGauss(t, 4, 0.05, 100, seed), trs...)
}

// wrap applies transforms inside-out: wrap(t, s, A, B) is B(A(s)).
func wrap(t *testing.T, s scenario.Stream, trs ...scenario.Transform) scenario.Stream {
	t.Helper()
	for _, tr := range trs {
		var err error
		if s, err = tr(s); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// meanWindow averages channel c over steps [lo, hi).
func meanWindow(vecs [][]float64, c, lo, hi int) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += vecs[i][c]
	}
	if hi == lo {
		return 0
	}
	return sum / float64(hi-lo)
}

func TestDriftAbrupt(t *testing.T) {
	s := compose(t, 11, scenario.Drift(scenario.DriftConfig{Kind: scenario.Abrupt, At: 200, Shift: 5}))
	vecs, labels := drain(t, s, 400)
	assertExactCounts(t, s, labels)
	// Mean jumps by ~5·scale at step 200; compare pre/post windows.
	for c := 0; c < s.Channels(); c++ {
		jump := meanWindow(vecs, c, 200, 400) - meanWindow(vecs, c, 0, 200)
		want := 5 * s.Scale(c)
		if jump < 0.7*want || jump > 1.3*want {
			t.Fatalf("channel %d: abrupt mean jump %v, want ≈ %v", c, jump, want)
		}
	}
}

func TestDriftGradualRampsMonotonically(t *testing.T) {
	base := mustGauss(t, 4, 0, 100, 13) // p=0 so drift is the only signal
	ref := mustGauss(t, 4, 0, 100, 13)  // identical twin, undrifted
	s := wrap(t, base, scenario.Drift(scenario.DriftConfig{Kind: scenario.Gradual, At: 100, Span: 200, Shift: 4}))
	vecs, _ := drain(t, s, 400)
	refVecs, _ := drain(t, ref, 400)
	// The displacement vs the undrifted twin must ramp: zero before At,
	// strictly growing across the span, full height after.
	disp := func(i int) float64 { return vecs[i][0] - refVecs[i][0] }
	if disp(50) != 0 {
		t.Fatalf("displacement before onset: %v", disp(50))
	}
	early := disp(120)
	mid := disp(200)
	late := disp(299)
	if !(early > 0 && mid > early && late > mid) {
		t.Fatalf("ramp not monotone: %v, %v, %v", early, mid, late)
	}
	full := 4 * s.Scale(0)
	if math.Abs(disp(350)-full) > 1e-9 {
		t.Fatalf("post-span displacement %v, want exactly %v", disp(350), full)
	}
}

func TestDriftRecurringTogglesConcepts(t *testing.T) {
	base := mustGauss(t, 2, 0, 100, 17)
	ref := mustGauss(t, 2, 0, 100, 17)
	s := wrap(t, base, scenario.Drift(scenario.DriftConfig{Kind: scenario.Recurring, At: 100, Span: 50, Period: 100, Shift: 3}))
	vecs, _ := drain(t, s, 400)
	refVecs, _ := drain(t, ref, 400)
	full := 3 * s.Scale(0)
	for i := 0; i < 400; i++ {
		d := vecs[i][0] - refVecs[i][0]
		inConcept := i >= 100 && (i-100)%100 < 50
		if inConcept && math.Abs(d-full) > 1e-9 {
			t.Fatalf("step %d: drifted concept displacement %v, want %v", i, d, full)
		}
		if !inConcept && d != 0 {
			t.Fatalf("step %d: base concept displaced by %v", i, d)
		}
	}
}

func TestDriftCovarianceMix(t *testing.T) {
	base := mustGauss(t, 2, 0, 100, 19)
	ref := mustGauss(t, 2, 0, 100, 19)
	s := wrap(t, base, scenario.Drift(scenario.DriftConfig{Kind: scenario.Abrupt, At: 0, Shift: 0, Mix: 0.5}))
	vecs, _ := drain(t, s, 100)
	refVecs, _ := drain(t, ref, 100)
	for i := range vecs {
		for c := 0; c < 2; c++ {
			want := 0.5*refVecs[i][c] + 0.5*refVecs[i][(c+1)%2]
			if math.Abs(vecs[i][c]-want) > 1e-12 {
				t.Fatalf("step %d ch %d: mix %v, want %v", i, c, vecs[i][c], want)
			}
		}
	}
}

func TestSeasonAddsPeriodicity(t *testing.T) {
	base := mustGauss(t, 3, 0, 100, 23)
	ref := mustGauss(t, 3, 0, 100, 23)
	s := wrap(t, base, scenario.Season(64, 2))
	vecs, labels := drain(t, s, 256)
	refVecs, _ := drain(t, ref, 256)
	assertExactCounts(t, s, labels)
	for i := 0; i < 256; i++ {
		for c := 0; c < 3; c++ {
			phase := 2 * math.Pi * float64(c) / 3
			want := refVecs[i][c] + 2*s.Scale(c)*math.Sin(2*math.Pi*float64(i)/64+phase)
			if math.Abs(vecs[i][c]-want) > 1e-12 {
				t.Fatalf("step %d ch %d: %v, want %v", i, c, vecs[i][c], want)
			}
		}
	}
}

func TestScaleShift(t *testing.T) {
	base := mustGauss(t, 2, 0, 100, 29)
	ref := mustGauss(t, 2, 0, 100, 29)
	s := wrap(t, base, scenario.ScaleShift(50, 3))
	vecs, _ := drain(t, s, 100)
	refVecs, _ := drain(t, ref, 100)
	for i := 0; i < 100; i++ {
		mul := 1.0
		if i >= 50 {
			mul = 3
		}
		for c := 0; c < 2; c++ {
			if vecs[i][c] != refVecs[i][c]*mul {
				t.Fatalf("step %d ch %d: %v, want %v", i, c, vecs[i][c], refVecs[i][c]*mul)
			}
		}
	}
}

func TestDropoutModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode scenario.DropoutMode
	}{
		{"stuck", scenario.Stuck},
		{"nan", scenario.NaNs},
		{"zero", scenario.Zero},
	} {
		s := compose(t, 31, scenario.Dropout(scenario.DropoutConfig{
			At: 40, Span: 20, Period: 80, Channels: 2, Mode: tc.mode, Seed: 5,
		}))
		vecs, labels := drain(t, s, 240)
		assertExactCounts(t, s, labels) // dropout must not relabel
		// Find the dropped channels from the first window's behaviour.
		dropped := map[int]bool{}
		for c := 0; c < s.Channels(); c++ {
			switch tc.mode {
			case scenario.NaNs:
				if math.IsNaN(vecs[45][c]) {
					dropped[c] = true
				}
			case scenario.Zero:
				if vecs[45][c] == 0 {
					dropped[c] = true
				}
			default:
				if vecs[45][c] == vecs[44][c] && vecs[45][c] == vecs[59][c] {
					dropped[c] = true
				}
			}
		}
		if len(dropped) != 2 {
			t.Fatalf("%s: found %d dropped channels, want 2", tc.name, len(dropped))
		}
		for i := 0; i < 240; i++ {
			faulty := i >= 40 && (i-40)%80 < 20
			for c := range dropped {
				v := vecs[i][c]
				switch {
				case !faulty:
					if math.IsNaN(v) {
						t.Fatalf("%s: step %d ch %d faulty outside window", tc.name, i, c)
					}
				case tc.mode == scenario.NaNs && !math.IsNaN(v):
					t.Fatalf("%s: step %d ch %d = %v, want NaN", tc.name, i, c, v)
				case tc.mode == scenario.Zero && v != 0:
					t.Fatalf("%s: step %d ch %d = %v, want 0", tc.name, i, c, v)
				case tc.mode == scenario.Stuck && v != vecs[i-(i-40)%80-1][c]:
					// Each window re-freezes at its own last healthy value.
					t.Fatalf("%s: step %d ch %d = %v, want stuck at %v", tc.name, i, c, v, vecs[i-(i-40)%80-1][c])
				}
			}
		}
	}
}

func TestBurstRelabelsExactly(t *testing.T) {
	s := compose(t, 37, scenario.Burst(scenario.BurstConfig{At: 30, Span: 10, Period: 50, Mag: 8}))
	vecs, labels := drain(t, s, 500)
	// Inside every burst window all labels are true, and the counts the
	// acceptance criteria pin: ExactAnomalyCount == observed at every
	// prefix even though Burst rewrites labels.
	assertExactCounts(t, s, labels)
	for i := 0; i < 500; i++ {
		if i >= 30 && (i-30)%50 < 10 && !labels[i] {
			t.Fatalf("step %d inside burst not labelled", i)
		}
	}
	// The spike must actually displace the signal.
	inBurst := meanAbs(vecs, 30, 40)
	outside := meanAbs(vecs, 0, 30)
	if inBurst < 2*outside {
		t.Fatalf("burst magnitude too small: |in|=%v vs |out|=%v", inBurst, outside)
	}
}

func TestBurstOneShot(t *testing.T) {
	s := compose(t, 41, scenario.Burst(scenario.BurstConfig{At: 20, Span: 5}))
	_, labels := drain(t, s, 100)
	assertExactCounts(t, s, labels)
	for i := 20; i < 25; i++ {
		if !labels[i] {
			t.Fatalf("step %d inside one-shot burst not labelled", i)
		}
	}
	for i := 25; i < 100; i++ {
		if labels[i] && i >= 25 {
			// Residual base-pool anomalies are fine; a second forced
			// window is not. Only check that count matches (done above).
			break
		}
	}
}

// TestComposedStack is the acceptance-criteria composition test: every
// injector stacked, ExactAnomalyCount still exact at every prefix, and
// the whole stack bit-identical on replay.
func TestComposedStack(t *testing.T) {
	build := func() scenario.Stream {
		g := mustGauss(t, 5, 0.04, 128, 43)
		return wrap(t, g,
			scenario.Drift(scenario.DriftConfig{Kind: scenario.Recurring, At: 64, Span: 32, Period: 128, Shift: 2, ScaleMul: 1.5, Mix: 0.2}),
			scenario.Season(48, 1.5),
			scenario.ScaleShift(200, 0.5),
			scenario.Dropout(scenario.DropoutConfig{At: 96, Span: 16, Period: 160, Channels: 2, Mode: scenario.Stuck, Seed: 9}),
			scenario.Burst(scenario.BurstConfig{At: 150, Span: 12, Period: 200, Mag: 7}),
		)
	}
	a := build()
	vecsA, labelsA := drain(t, a, 600)
	assertExactCounts(t, a, labelsA)

	b := build()
	vecsB, labelsB := drain(t, b, 600)
	for i := range vecsA {
		if labelsA[i] != labelsB[i] {
			t.Fatalf("step %d: labels diverge on replay", i)
		}
		for c := range vecsA[i] {
			if math.Float64bits(vecsA[i][c]) != math.Float64bits(vecsB[i][c]) {
				t.Fatalf("step %d ch %d: composed stack not bit-identical (%v vs %v)", i, c, vecsA[i][c], vecsB[i][c])
			}
		}
	}
}

func TestTransformValidation(t *testing.T) {
	g := mustGauss(t, 2, 0, 32, 1)
	for name, tr := range map[string]scenario.Transform{
		"recurring drift period<=span": scenario.Drift(scenario.DriftConfig{Kind: scenario.Recurring, Span: 10, Period: 10}),
		"drift mix out of range":       scenario.Drift(scenario.DriftConfig{Mix: 1.5}),
		"season period 1":              scenario.Season(1, 1),
		"scale mul 0":                  scenario.ScaleShift(0, 0),
		"dropout span 0":               scenario.Dropout(scenario.DropoutConfig{Span: 0}),
		"dropout period<=span":         scenario.Dropout(scenario.DropoutConfig{Span: 10, Period: 5}),
		"burst span 0":                 scenario.Burst(scenario.BurstConfig{Span: 0}),
		"burst period<=span":           scenario.Burst(scenario.BurstConfig{Span: 10, Period: 10}),
	} {
		if _, err := tr(g); err == nil {
			t.Errorf("%s: transform accepted invalid config", name)
		}
	}
}

func meanAbs(vecs [][]float64, lo, hi int) float64 {
	sum := 0.0
	n := 0
	for i := lo; i < hi; i++ {
		for _, v := range vecs[i] {
			sum += math.Abs(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
