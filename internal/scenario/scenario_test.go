package scenario_test

import (
	"math"
	"testing"

	"streamad/internal/scenario"
)

// drain pulls n vectors off a stream, copying them, and returns vectors
// and labels.
func drain(t *testing.T, s scenario.Stream, n int) ([][]float64, []bool) {
	t.Helper()
	vecs := make([][]float64, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		v, lab := s.Next()
		if len(v) != s.Channels() {
			t.Fatalf("step %d: %d channels, want %d", i, len(v), s.Channels())
		}
		vecs[i] = append([]float64(nil), v...)
		labels[i] = lab
	}
	return vecs, labels
}

// countTrue is the observed-label reference ExactAnomalyCount is tested
// against.
func countTrue(labels []bool, n int) int {
	c := 0
	for _, l := range labels[:n] {
		if l {
			c++
		}
	}
	return c
}

// assertExactCounts checks ExactAnomalyCount against observed labels at
// every prefix — the determinism contract of the acceptance criteria.
func assertExactCounts(t *testing.T, s scenario.Stream, labels []bool) {
	t.Helper()
	for n := 0; n <= len(labels); n++ {
		if got, want := s.ExactAnomalyCount(n), countTrue(labels, n); got != want {
			t.Fatalf("ExactAnomalyCount(%d) = %d, observed %d", n, got, want)
		}
	}
}

func mustGauss(t *testing.T, ch int, p float64, pool int, seed int64) *scenario.Generator {
	t.Helper()
	pools, err := scenario.GaussPools(ch, 256, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := scenario.NewGenerator(pools.Normal, pools.Anomaly, p, pool, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorExactContamination(t *testing.T) {
	const pool = 200
	for _, p := range []float64{0, 0.01, 0.025, 0.1, 0.5} {
		g := mustGauss(t, 3, p, pool, 42)
		want := int(p * pool)
		if got := g.ExactAnomalyCount(pool); got != want {
			t.Fatalf("p=%v: per-cycle anomalies %d, want ⌊p·P⌋ = %d", p, got, want)
		}
		_, labels := drain(t, g, 3*pool+17)
		assertExactCounts(t, g, labels)
		// Every aligned AND unaligned window of one pool length holds
		// exactly ⌊p·P⌋ anomalies: the cyclic-schedule guarantee.
		for start := 0; start+pool <= len(labels); start++ {
			if got := countTrue(labels[start:], pool); got != want {
				t.Fatalf("p=%v: window [%d,%d) has %d anomalies, want exactly %d", p, start, start+pool, got, want)
			}
		}
	}
}

func TestGeneratorDeterministicReplay(t *testing.T) {
	a := mustGauss(t, 4, 0.05, 128, 7)
	b := mustGauss(t, 4, 0.05, 128, 7)
	va, la := drain(t, a, 400)
	vb, lb := drain(t, b, 400)
	for i := range va {
		if la[i] != lb[i] {
			t.Fatalf("step %d: labels diverge", i)
		}
		for c := range va[i] {
			if math.Float64bits(va[i][c]) != math.Float64bits(vb[i][c]) {
				t.Fatalf("step %d ch %d: %v vs %v (must be bit-identical)", i, c, va[i][c], vb[i][c])
			}
		}
	}
	// A different seed must actually change the stream.
	c := mustGauss(t, 4, 0.05, 128, 8)
	vc, _ := drain(t, c, 400)
	same := true
	for i := range va {
		for ch := range va[i] {
			if va[i][ch] != vc[i][ch] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical streams")
	}
}

func TestGeneratorValidation(t *testing.T) {
	pools, err := scenario.GaussPools(2, 64, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		normal, anomaly [][]float64
		p               float64
		pool            int
	}{
		{"zero pool", pools.Normal, pools.Anomaly, 0.1, 0},
		{"negative proportion", pools.Normal, pools.Anomaly, -0.1, 10},
		{"proportion one", pools.Normal, pools.Anomaly, 1.0, 10},
		{"empty normal", nil, pools.Anomaly, 0.1, 10},
		{"empty anomaly with contamination", pools.Normal, nil, 0.5, 10},
		{"ragged normal", [][]float64{{1, 2}, {1}}, pools.Anomaly, 0, 10},
		{"channel mismatch", pools.Normal, [][]float64{{1}}, 0.5, 10},
	} {
		if _, err := scenario.NewGenerator(tc.normal, tc.anomaly, tc.p, tc.pool, 1); err == nil {
			t.Errorf("%s: NewGenerator accepted invalid input", tc.name)
		}
	}
}

func TestCorpusPoolsSplitByLabel(t *testing.T) {
	for _, name := range []string{"daphnet", "exathlon", "smd"} {
		p, err := scenario.CorpusPools(name, 2600, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Normal) == 0 || len(p.Anomaly) == 0 {
			t.Fatalf("%s: pools %d/%d rows", name, len(p.Normal), len(p.Anomaly))
		}
		// Same seed, same pools — bit-identical.
		q, err := scenario.CorpusPools(name, 2600, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Normal) != len(p.Normal) || len(q.Anomaly) != len(p.Anomaly) {
			t.Fatalf("%s: replay changed pool sizes", name)
		}
		for i := range p.Normal {
			for c := range p.Normal[i] {
				if p.Normal[i][c] != q.Normal[i][c] {
					t.Fatalf("%s: normal row %d diverges on replay", name, i)
				}
			}
		}
	}
	if _, err := scenario.CorpusPools("nope", 1000, 1); err == nil {
		t.Fatal("unknown corpus accepted")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]string{}
	for _, salt := range []string{"drift/0", "drift/1", "season/0", "pool", "schedule"} {
		s := scenario.DeriveSeed(99, salt)
		if prev, dup := seen[s]; dup {
			t.Fatalf("salts %q and %q collide", prev, salt)
		}
		seen[s] = salt
		if scenario.DeriveSeed(100, salt) == s {
			t.Fatalf("salt %q ignores the parent seed", salt)
		}
	}
}

func TestPacerDeterministicPlans(t *testing.T) {
	tc := scenario.TimingConfig{JitterFrac: 0.3, LateProb: 0.2, LateDelay: 50e6, ReorderProb: 0.2}
	a := scenario.NewPacer(tc, 10e6, 5)
	b := scenario.NewPacer(tc, 10e6, 5)
	sawSwap, sawJitter := false, false
	for i := 0; i < 500; i++ {
		pa, pb := a.Plan(), b.Plan()
		if pa != pb {
			t.Fatalf("plan %d diverges: %+v vs %+v", i, pa, pb)
		}
		if pa.SwapWithNext {
			sawSwap = true
		}
		if pa.Gap != 10e6 {
			sawJitter = true
		}
		if pa.Gap <= 0 {
			t.Fatalf("plan %d: non-positive gap %v", i, pa.Gap)
		}
	}
	if !sawSwap || !sawJitter {
		t.Fatalf("faults never fired in 500 plans (swap=%v jitter=%v)", sawSwap, sawJitter)
	}
}
