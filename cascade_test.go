package streamad

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
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
// must not allocate for any of the four detectors.
func TestStepZeroAllocTier0(t *testing.T) {
	kinds := []Tier0Kind{Tier0EWMA, Tier0ZScore, Tier0Hampel, Tier0Density}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			d, err := NewTier0(Config{Channels: 3, Seed: 3}, kind, 16)
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
				t.Errorf("%s Step allocates %.1f per op on the hot path, want 0", kind, allocs)
			}
		})
	}
}
