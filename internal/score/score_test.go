package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCosineMeasure(t *testing.T) {
	c := Cosine{}
	if got := c.Measure([]float64{1, 2}, []float64{1, 2}); !almostEq(got, 0, 1e-12) {
		t.Fatalf("identical vectors → %v, want 0", got)
	}
	if got := c.Measure([]float64{1, 0}, []float64{-1, 0}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("opposite vectors → %v, want 1", got)
	}
	if got := c.Measure([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("orthogonal vectors → %v, want 0.5", got)
	}
}

// TestCosineRangeProperty: measure must stay in [0,1] for any input.
func TestCosineRangeProperty(t *testing.T) {
	c := Cosine{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 50
			b[i] = rng.NormFloat64() * 50
		}
		v := c.Measure(a, b)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRawScorer(t *testing.T) {
	var r Raw
	if r.Score(0.7) != 0.7 {
		t.Fatal("Raw must pass through")
	}
	r.Reset()
}

func TestAverageScorer(t *testing.T) {
	s := NewAverage(3)
	if got := s.Score(3); got != 3 {
		t.Fatalf("first = %v", got)
	}
	if got := s.Score(6); got != 4.5 {
		t.Fatalf("second = %v", got)
	}
	if got := s.Score(9); got != 6 {
		t.Fatalf("third = %v", got)
	}
	if got := s.Score(12); got != 9 { // window slides: (6+9+12)/3
		t.Fatalf("fourth = %v, want 9", got)
	}
	s.Reset()
	if got := s.Score(1); got != 1 {
		t.Fatalf("after reset = %v", got)
	}
}

// TestAverageMatchesBatchProperty: sliding average equals the mean of the
// last k values for any sequence.
func TestAverageMatchesBatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(60)
		s := NewAverage(k)
		var all []float64
		var last float64
		for i := 0; i < n; i++ {
			v := rng.Float64()
			all = append(all, v)
			last = s.Score(v)
		}
		start := 0
		if len(all) > k {
			start = len(all) - k
		}
		var want float64
		for _, v := range all[start:] {
			want += v
		}
		want /= float64(len(all) - start)
		return almostEq(last, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAnomalyLikelihoodNeutralAtStart(t *testing.T) {
	s := NewAnomalyLikelihood(20, 3)
	// Until the lagged long window has data, the score is neutral.
	if got := s.Score(0.5); got != 0.5 {
		t.Fatalf("initial = %v, want 0.5", got)
	}
}

func TestAnomalyLikelihoodSpikesOnShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewAnomalyLikelihood(50, 5)
	var calm float64
	for i := 0; i < 200; i++ {
		calm = s.Score(0.1 + 0.02*rng.NormFloat64())
	}
	// Sudden elevated nonconformity: likelihood should approach 1.
	var spiked float64
	for i := 0; i < 6; i++ {
		spiked = s.Score(0.5 + 0.02*rng.NormFloat64())
	}
	if spiked < 0.95 {
		t.Fatalf("likelihood after spike = %v, want > 0.95", spiked)
	}
	if spiked <= calm {
		t.Fatalf("spiked (%v) must exceed calm (%v)", spiked, calm)
	}
}

func TestAnomalyLikelihoodDropsBelowHalfOnImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewAnomalyLikelihood(50, 5)
	for i := 0; i < 200; i++ {
		s.Score(0.5 + 0.02*rng.NormFloat64())
	}
	var low float64
	for i := 0; i < 6; i++ {
		low = s.Score(0.1)
	}
	if low >= 0.5 {
		t.Fatalf("likelihood after improvement = %v, want < 0.5", low)
	}
}

func TestAnomalyLikelihoodRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewAnomalyLikelihood(10, 2)
		for i := 0; i < 100; i++ {
			v := s.Score(rng.Float64())
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAnomalyLikelihoodReset(t *testing.T) {
	s := NewAnomalyLikelihood(10, 2)
	for i := 0; i < 50; i++ {
		s.Score(0.9)
	}
	s.Reset()
	if got := s.Score(0.1); got != 0.5 {
		t.Fatalf("after reset = %v, want neutral 0.5", got)
	}
}

func TestAnomalyLikelihoodPanicsOnBadWindows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAnomalyLikelihood(5, 5)
}

func TestAnomalyLikelihoodConstantStreamStable(t *testing.T) {
	s := NewAnomalyLikelihood(30, 3)
	var last float64
	for i := 0; i < 200; i++ {
		last = s.Score(0.3)
	}
	// Constant stream: short mean equals long mean → z = 0 → 0.5.
	if !almostEq(last, 0.5, 1e-9) {
		t.Fatalf("constant stream likelihood = %v, want 0.5", last)
	}
}
