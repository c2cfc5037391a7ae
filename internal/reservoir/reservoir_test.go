package reservoir

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func vec(vals ...float64) []float64 { return vals }

func TestSlidingWindowOrderAndEviction(t *testing.T) {
	sw := NewSlidingWindow(3, 1, 1)
	for i := 1; i <= 3; i++ {
		u := sw.Observe(vec(float64(i)), 0)
		if u.Kind != Added {
			t.Fatalf("push %d kind = %v, want Added", i, u.Kind)
		}
	}
	u := sw.Observe(vec(4), 0)
	if u.Kind != Replaced || u.Evicted[0] != 1 {
		t.Fatalf("eviction = %+v, want Replaced/1", u)
	}
	items := sw.Items()
	want := []float64{2, 3, 4}
	for i := range want {
		if items[i][0] != want[i] {
			t.Fatalf("Items = %v, want %v", items, want)
		}
	}
	if sw.Len() != 3 || sw.m != 3 {
		t.Fatalf("Len/Cap = %d/%d", sw.Len(), sw.m)
	}
}

func TestSlidingWindowCopiesInput(t *testing.T) {
	sw := NewSlidingWindow(2, 2, 1)
	buf := vec(1, 2)
	sw.Observe(buf, 0)
	buf[0] = 99
	if sw.Items()[0][0] != 1 {
		t.Fatal("sliding window aliases input")
	}
}

// TestSlidingWindowProperty: items always equal the last min(m,n) vectors.
func TestSlidingWindowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		n := rng.Intn(40)
		sw := NewSlidingWindow(m, 1, 1)
		var all []float64
		for i := 0; i < n; i++ {
			v := rng.Float64()
			all = append(all, v)
			sw.Observe(vec(v), 0)
		}
		start := 0
		if len(all) > m {
			start = len(all) - m
		}
		want := all[start:]
		items := sw.Items()
		if len(items) != len(want) {
			return false
		}
		for i := range want {
			if items[i][0] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformReservoirFillsThenSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ur := NewUniformReservoir(10, 1, rng)
	for i := 0; i < 10; i++ {
		if u := ur.Observe(vec(float64(i)), 0); u.Kind != Added {
			t.Fatalf("fill kind = %v", u.Kind)
		}
	}
	replaced, skipped := 0, 0
	for i := 10; i < 1000; i++ {
		switch ur.Observe(vec(float64(i)), 0).Kind {
		case Replaced:
			replaced++
		case Skipped:
			skipped++
		default:
			t.Fatal("Added after full")
		}
	}
	if ur.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ur.Len())
	}
	// Expected replacements: Σ m/t ≈ m·ln(1000/10) ≈ 46.
	if replaced < 20 || replaced > 90 {
		t.Fatalf("replaced = %d, want ≈46", replaced)
	}
	if skipped == 0 {
		t.Fatal("expected some skips")
	}
}

// TestUniformReservoirUnbiasedProperty: over many runs, early and late
// stream elements should be retained at comparable rates.
func TestUniformReservoirUnbiased(t *testing.T) {
	const (
		streamLen = 200
		m         = 20
		runs      = 300
	)
	counts := make([]int, streamLen)
	for r := 0; r < runs; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		ur := NewUniformReservoir(m, 1, rng)
		for i := 0; i < streamLen; i++ {
			ur.Observe(vec(float64(i)), 0)
		}
		for _, it := range ur.Items() {
			counts[int(it[0])]++
		}
	}
	// Every element has expected retention m/streamLen = 0.1 → expected
	// count 30 over 300 runs. Compare first and last quartile means.
	var early, late float64
	for i := 0; i < streamLen/4; i++ {
		early += float64(counts[i])
	}
	for i := 3 * streamLen / 4; i < streamLen; i++ {
		late += float64(counts[i])
	}
	ratio := early / late
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("retention early/late ratio = %.2f, want ≈1 (unbiased)", ratio)
	}
}

func TestARESPriorityMonotonicInScore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ar := NewAnomalyAwareReservoir(5, 1, rng)
	// Average priority for low anomaly scores must exceed that for high
	// scores (the function is decreasing in f modulo the random base u).
	var lo, hi float64
	const n = 2000
	for i := 0; i < n; i++ {
		lo += ar.Priority(0.0)
		hi += ar.Priority(1.0)
	}
	lo /= n
	hi /= n
	if lo <= hi {
		t.Fatalf("priority(f=0)=%v must exceed priority(f=1)=%v", lo, hi)
	}
}

func TestARESKeepsNormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ar := NewAnomalyAwareReservoir(20, 1, rng)
	// Fill with normal vectors (f=0), then offer anomalous ones (f=1).
	for i := 0; i < 20; i++ {
		ar.Observe(vec(0), 0)
	}
	replacedByAnomalous := 0
	for i := 0; i < 200; i++ {
		if ar.Observe(vec(1), 1).Kind == Replaced {
			replacedByAnomalous++
		}
	}
	// Anomalous vectors have much lower priorities; only few should enter.
	anomalousKept := 0
	for _, it := range ar.Items() {
		if it[0] == 1 {
			anomalousKept++
		}
	}
	if anomalousKept > 10 {
		t.Fatalf("ARES kept %d/20 anomalous vectors, want few", anomalousKept)
	}
}

func TestARESReplacementNeedsLowerPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ar := NewAnomalyAwareReservoir(3, 1, rng)
	for i := 0; i < 3; i++ {
		ar.Observe(vec(float64(i)), 0)
	}
	min := minPriority(ar)
	if min <= 0 || min >= 1 {
		t.Fatalf("min priority = %v, want in (0,1)", min)
	}
	if ar.Len() != 3 || ar.m != 3 {
		t.Fatalf("Len/Cap = %d/%d", ar.Len(), ar.m)
	}
}

// minPriority returns the lowest priority a holds, or +Inf when it is
// empty: the bar a newcomer must clear once a is full.
func minPriority(a *AnomalyAwareReservoir) float64 {
	if a.h.Len() == 0 {
		return math.Inf(1)
	}
	return a.h.entries[0].p
}

func TestARESEmptyMinPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ar := NewAnomalyAwareReservoir(2, 1, rng)
	if !math.IsInf(minPriority(ar), 1) {
		t.Fatal("empty ARES minimum priority should be +Inf")
	}
}

func TestARESNaNScoreTreatedAsAnomalous(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewAnomalyAwareReservoir(2, 1, rng)
	p := ar.Priority(math.NaN())
	if math.IsNaN(p) || p <= 0 {
		t.Fatalf("Priority(NaN) = %v, want finite positive", p)
	}
}

func TestParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, f := range []func(){
		func() { NewSlidingWindow(0, 1, 1) },
		func() { NewUniformReservoir(1, 0, rng) },
		func() { NewAnomalyAwareReservoirParams(1, 1, rng, 0, 0.9, 3, 3) },
		func() { NewAnomalyAwareReservoirParams(1, 1, rng, 0.9, 0.7, 3, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestObserveDimensionMismatchPanics(t *testing.T) {
	sw := NewSlidingWindow(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sw.Observe(vec(1), 0)
}
