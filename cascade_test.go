package streamad

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamad/internal/scenario"
	"streamad/internal/score"
)

// noisyVec fills dst with the synthetic waveform plus seeded Gaussian
// noise, so gate scores are tie-free and conformal ranks are meaningful.
func noisyVec(dst []float64, t int, rng *rand.Rand) []float64 {
	syntheticVec(dst, t)
	for c := range dst {
		dst[c] += 0.05 * rng.NormFloat64()
	}
	return dst
}

func TestParseCascadeSpec(t *testing.T) {
	// heavy parses each canonical member spec on its own: a heavy member
	// is the same tree nested as standing alone.
	heavy := func(members ...string) []Spec {
		out := make([]Spec, len(members))
		for i, m := range members {
			sp, err := ParseSpec(m)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = sp
		}
		return out
	}
	cases := []struct {
		in   string
		want CascadeSpec
		str  string // canonical String() rendering
	}{
		{
			in:   "cascade(zscore, knn)",
			want: CascadeSpec{Gate: Tier0ZScore, Heavy: heavy("knn+sw+musigma+al")},
			str:  "cascade(zscore, knn+sw+musigma+al; admit=0.1)",
		},
		{
			in: "cascade(hampel, usad+sw+musigma+al; admit=0.05, calib=256, gatewin=32)",
			want: CascadeSpec{
				Gate: Tier0Hampel, Heavy: heavy("usad+sw+musigma+al"),
				Admit: 0.05, Calib: 256, GateWindow: 32,
			},
			str: "cascade(hampel, usad+sw+musigma+al; admit=0.05, calib=256, gatewin=32)",
		},
		{
			in: "cascade(ewma, ensemble(arima+sw+kswin, usad+ares+regular; agg=median); admit=0.02)",
			want: CascadeSpec{
				Gate:  Tier0EWMA,
				Heavy: heavy("ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=median)"),
				Admit: 0.02,
			},
			str: "cascade(ewma, ensemble(arima+sw+kswin+al, usad+ares+regular+al; agg=median); admit=0.02)",
		},
		{
			in: "cascade(density, knn+sw+musigma+raw, arima+sw+kswin)",
			want: CascadeSpec{
				Gate:  Tier0Density,
				Heavy: heavy("knn+sw+musigma+raw", "arima+sw+kswin+al"),
			},
			str: "cascade(density, knn+sw+musigma+raw, arima+sw+kswin+al; admit=0.1)",
		},
	}
	for _, tc := range cases {
		got, err := parseAs[CascadeSpec](tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.String() != tc.str {
			t.Errorf("String() = %q, want %q", got.String(), tc.str)
		}
		// The canonical form is a fixed point of parse∘String (defaults
		// become explicit on the first rendering, so compare renderings).
		again, err := parseAs[CascadeSpec](got.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", got.String(), err)
		} else if again.String() != got.String() {
			t.Errorf("round-trip of %q: %q != %q", tc.in, again.String(), got.String())
		}
	}
}

func TestParseCascadeSpecErrors(t *testing.T) {
	bad := []string{
		"cascade()",
		"cascade(zscore)",                      // no heavy member
		"cascade(knn, zscore)",                 // gate is not tier-0
		"cascade(zscore, )",                    // empty heavy member
		"cascade(zscore, knn; admit=1.5)",      // admit out of range
		"cascade(zscore, knn; calib=4)",        // calib too small
		"cascade(zscore, knn; gatewin=2)",      // gatewin too small
		"cascade(zscore, knn; bogus=1)",        // unknown option
		"cascade(zscore, knn; admit=0.1; x=1)", // two option sections
		"cascade(zscore, cascade(ewma, knn))",  // cascades do not nest
		"cascade(zscore, knn",                  // unterminated
	}
	for _, s := range bad {
		if _, err := parseAs[CascadeSpec](s); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", s)
		}
	}
}

func TestNewFromSpecTier0(t *testing.T) {
	d, err := NewFromSpec("hampel", Config{Channels: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	for i := 0; i < 100; i++ {
		d.Step(syntheticVec(buf, i))
	}
	if d.Steps() != 100 {
		t.Fatalf("Steps() = %d, want 100", d.Steps())
	}
	if _, err := NewFromSpec("zscore", Config{}); err == nil {
		t.Fatal("NewFromSpec accepted a tier-0 spec without Channels")
	}
}

// cascadeBase is the shared geometry for the cascade behavior tests: a
// small kNN heavy pipeline that warms up quickly.
func cascadeBase() Config {
	return Config{Channels: 3, Window: 8, TrainSize: 32, WarmupVectors: 40, Seed: 3}
}

const cascadeTestSpec = "cascade(zscore, knn; admit=0.1, calib=64, gatewin=32)"

func TestCascadeScreening(t *testing.T) {
	det, err := NewFromSpec(cascadeTestSpec, cascadeBase())
	if err != nil {
		t.Fatal(err)
	}
	casc, ok := det.(*Cascade)
	if !ok {
		t.Fatalf("NewFromSpec returned %T, want *Cascade", det)
	}
	defer casc.Close()

	rng := rand.New(rand.NewSource(19))
	buf := make([]float64, 3)
	sawGate, sawHeavy := false, false
	for i := 0; i < 800; i++ {
		noisyVec(buf, i, rng)
		res, ok := casc.Step(buf)
		if !ok {
			continue
		}
		switch {
		case res.Source == "tier0:zscore":
			sawGate = true
		case strings.HasPrefix(res.Source, "heavy:"):
			sawHeavy = true
		default:
			t.Fatalf("step %d: unexpected Source %q", i, res.Source)
		}
	}
	st := *casc.Stats().Cascade
	if !st.Screening {
		t.Fatalf("screening never activated: %+v", st)
	}
	if !sawGate || !sawHeavy {
		t.Fatalf("missing tier attribution: gate=%v heavy=%v", sawGate, sawHeavy)
	}
	if st.Screened == 0 {
		t.Fatalf("no vectors screened: %+v", st)
	}
	if st.Steps != 800 || st.Screened+st.Admitted+st.Forwarded != st.Steps {
		t.Fatalf("counters do not partition the stream: %+v", st)
	}
	// The conformal gate keeps the admission fraction near the 0.1
	// target; the bound is loose because the calibration window is short.
	if st.AdmissionRate <= 0 || st.AdmissionRate > 0.35 {
		t.Fatalf("admission rate %v implausible for admit=0.1", st.AdmissionRate)
	}
	// The cost win: most traffic never reaches the heavy tier.
	if st.HeavyRate >= 0.6 {
		t.Fatalf("heavy tier saw %.0f%% of traffic, screening is not saving work", st.HeavyRate*100)
	}
	if casc.Spec().String() != "cascade(zscore, knn+sw+musigma+al; admit=0.1, calib=64, gatewin=32)" {
		t.Fatalf("Spec() = %q", casc.Spec().String())
	}
}

// TestCascadeSpikeAdmitted checks a gross anomaly is admitted to the
// heavy tier once screening is active.
func TestCascadeSpikeAdmitted(t *testing.T) {
	det, err := NewFromSpec(cascadeTestSpec, cascadeBase())
	if err != nil {
		t.Fatal(err)
	}
	casc := det.(*Cascade)
	defer casc.Close()

	rng := rand.New(rand.NewSource(43))
	buf := make([]float64, 3)
	for i := 0; i < 600; i++ {
		casc.Step(noisyVec(buf, i, rng))
	}
	if !casc.Stats().Cascade.Screening {
		t.Fatal("screening not active after 600 steps")
	}
	noisyVec(buf, 600, rng)
	buf[0] += 10
	res, ok := casc.Step(buf)
	if !ok {
		t.Fatal("spike step returned ok=false")
	}
	if !strings.HasPrefix(res.Source, "heavy:") {
		t.Fatalf("spike was not admitted to the heavy tier (Source=%q)", res.Source)
	}
}

// TestCascadeSaveLoadBitIdentity checkpoints a cascade mid-stream and
// checks a restored twin screens and scores bit-identically.
func TestCascadeSaveLoadBitIdentity(t *testing.T) {
	const total, cut = 700, 350
	rng := rand.New(rand.NewSource(53))
	tape := make([][]float64, total)
	for i := range tape {
		tape[i] = noisyVec(make([]float64, 3), i, rng)
	}

	orig, err := NewFromSpec(cascadeTestSpec, cascadeBase())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.(*Cascade).Close()
	for i := 0; i < cut; i++ {
		orig.Step(tape[i])
	}
	blob, err := orig.Save()
	if err != nil {
		t.Fatal(err)
	}

	twin, err := NewFromSpec(cascadeTestSpec, cascadeBase())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.(*Cascade).Close()
	if err := twin.Load(blob); err != nil {
		t.Fatal(err)
	}
	if twin.Steps() != orig.Steps() {
		t.Fatalf("restored Steps() = %d, want %d", twin.Steps(), orig.Steps())
	}
	for i := cut; i < total; i++ {
		r1, ok1 := orig.Step(tape[i])
		r2, ok2 := twin.Step(tape[i])
		if ok1 != ok2 || r1.Score != r2.Score || r1.Nonconformity != r2.Nonconformity ||
			r1.Source != r2.Source || r1.FineTuned != r2.FineTuned {
			t.Fatalf("step %d diverged: orig (%+v,%v) twin (%+v,%v)", i, r1, ok1, r2, ok2)
		}
	}
	s1, s2 := *orig.(*Cascade).Stats().Cascade, *twin.(*Cascade).Stats().Cascade
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverged:\n orig %+v\n twin %+v", s1, s2)
	}
}

func TestCascadeLoadRejectsMismatch(t *testing.T) {
	orig, err := NewFromSpec(cascadeTestSpec, cascadeBase())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.(*Cascade).Close()
	blob, err := orig.Save()
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewFromSpec("cascade(zscore, knn; admit=0.05, calib=64, gatewin=32)", cascadeBase())
	if err != nil {
		t.Fatal(err)
	}
	defer other.(*Cascade).Close()
	if err := other.Load(blob); err == nil {
		t.Fatal("Load accepted a snapshot with a different admission rate")
	}
}

// TestStepZeroAllocTier0 guards the tier-0 hot path: once warm, Step
// must not allocate for any of the four detectors, nor for a cascade
// whose conformal gate screens for an ARIMA pipeline.
func TestStepZeroAllocTier0(t *testing.T) {
	type row struct {
		name  string
		build func() (StreamDetector, error)
	}
	var rows []row
	for _, kind := range []Tier0Kind{Tier0EWMA, Tier0ZScore, Tier0Hampel, Tier0Density} {
		rows = append(rows, row{kind.String(), func() (StreamDetector, error) {
			return NewTier0(Config{Channels: 3, Seed: 3}, kind, 16)
		}})
	}
	rows = append(rows, row{"cascade", func() (StreamDetector, error) {
		return NewFromSpec("cascade(zscore, arima+sw+regular+al; admit=0.2, calib=16, gatewin=8)", Config{
			Channels: 3, Window: 8, TrainSize: 32, WarmupVectors: 40, Seed: 3, RegularInterval: 1 << 30,
		})
	}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d, err := r.build()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, 3)
			for i := 0; i < 200; i++ {
				d.Step(syntheticVec(buf, i))
			}
			step := 200
			allocs := testing.AllocsPerRun(200, func() {
				d.Step(syntheticVec(buf, step))
				step++
			})
			if allocs != 0 {
				t.Errorf("%s Step allocates %.1f per op on the hot path, want 0", r.name, allocs)
			}
		})
	}
}

// screenRun is the run the cascade's cost claim is made on: the soak
// scenario with the drift pushed out to step 5000, so both detectors see
// a long stationary stretch first, through the always-on heavy pipeline
// and through the cascade that screens for it, on identical vectors.
func screenRun(tb testing.TB, n int) (series [][]float64, labels []bool, plain StreamDetector, cas *Cascade) {
	tb.Helper()
	sc, err := scenario.Parse("drift(base(corpus=gauss,channels=4,p=0.02,pool=512),kind=abrupt,at=5000,shift=4)")
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := sc.NewStream(scenario.DeriveSeed(1, "bench"))
	if err != nil {
		tb.Fatal(err)
	}
	series, labels = make([][]float64, n), make([]bool, n)
	for i := range series {
		v, anom := gen.Next()
		series[i], labels[i] = append([]float64(nil), v...), anom
	}
	spec, err := parseAs[CascadeSpec]("cascade(zscore, knn+sw+musigma+al; admit=0.1)")
	if err != nil {
		tb.Fatal(err)
	}
	base := Config{Channels: 4, Window: 16, TrainSize: 256, Seed: 1}
	if plain, err = spec.Heavy[0].Build(base); err != nil {
		tb.Fatal(err)
	}
	if cas, err = NewCascade(base, spec); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cas.Close() })
	return series, labels, plain, cas
}

// TestCascadeScreenHoldsRecall holds the cascade's claim in its
// deterministic form: the heavy tier scores at most a fifth of the
// traffic (the ≥ 5× cost cut; 0.109 today), recall under one shared
// alert policy drops by at most two points against the always-on heavy
// pipeline, and the conformal gate's false-admission rate on labelled
// normals lands within ±50 % of its target.
func TestCascadeScreenHoldsRecall(t *testing.T) {
	const warmup = 512
	series, labels, plain, cas := screenRun(t, 16000)
	recall := func(det StreamDetector, onStep func(i int)) float64 {
		thr := score.NewQuantileThresholder(0.98)
		hits, anomalies := 0, 0
		for i, v := range series {
			res, ok := det.Step(v)
			if onStep != nil {
				onStep(i)
			}
			if !ok {
				continue
			}
			alert := thr.Alert(res.Nonconformity)
			if i >= warmup && labels[i] {
				anomalies++
				if alert {
					hits++
				}
			}
		}
		return float64(hits) / float64(anomalies)
	}
	plainRecall := recall(plain, nil)
	// Gate decisions on post-warmup normals, recovered from counter deltas.
	var prev struct{ screened, admitted int }
	decided, admitted := 0, 0
	cascadeRecall := recall(cas, func(i int) {
		st := cas.Stats().Cascade
		wasScreened, wasAdmitted := st.Screened > prev.screened, st.Admitted > prev.admitted
		prev.screened, prev.admitted = st.Screened, st.Admitted
		if (wasScreened || wasAdmitted) && i >= warmup && !labels[i] {
			decided++
			if wasAdmitted {
				admitted++
			}
		}
	})
	st := cas.Stats().Cascade
	if st.HeavyRate > 0.2 {
		t.Errorf("heavy tier scored %.3f of the traffic, want ≤ 0.2", st.HeavyRate)
	}
	if loss := (plainRecall - cascadeRecall) * 100; loss > 2 {
		t.Errorf("recall %.4f plain vs %.4f screened: %.2f pt lost, want ≤ 2", plainRecall, cascadeRecall, loss)
	}
	if far := float64(admitted) / float64(decided); math.Abs(far-st.AdmitTarget) > 0.5*st.AdmitTarget {
		t.Errorf("false-admission rate %.4f is more than 50 %% off its target %.2f", far, st.AdmitTarget)
	}
}

// BenchmarkCascadeStep is the wall-clock side of the same claim: one
// Step of the heavy pipeline alone and of the cascade screening for it.
func BenchmarkCascadeStep(b *testing.B) {
	series, _, plain, cas := screenRun(b, 2048)
	for _, bc := range []struct {
		name string
		det  StreamDetector
	}{{"plain", plain}, {"cascade", cas}} {
		b.Run(bc.name, func(b *testing.B) {
			for _, v := range series {
				bc.det.Step(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.det.Step(series[i%len(series)])
			}
		})
	}
}
