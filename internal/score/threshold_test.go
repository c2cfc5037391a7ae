package score

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestStaticThresholder(t *testing.T) {
	s := &StaticThresholder{T: 0.5}
	if !s.Alert(0.5) || s.Alert(0.49) {
		t.Fatal("static threshold boundary wrong")
	}
	if s.Threshold() != 0.5 {
		t.Fatal("Threshold wrong")
	}
}

func TestQuantileThresholderTracksQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewQuantileThresholder(0.95)
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64()
		vals = append(vals, v)
		q.Alert(v)
	}
	sort.Float64s(vals)
	exact := vals[int(0.95*float64(len(vals)))]
	got := q.Threshold()
	if math.Abs(got-exact) > 0.15 {
		t.Fatalf("P² estimate %v vs exact 95th percentile %v", got, exact)
	}
	if q.count != 5000 {
		t.Fatalf("Count = %d", q.count)
	}
}

func TestQuantileThresholderAlertRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := NewQuantileThresholder(0.99)
	alerts := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if q.Alert(rng.Float64()) {
			alerts++
		}
	}
	rate := float64(alerts) / n
	// On i.i.d. data the alert rate should approximate 1−q.
	if rate < 0.002 || rate > 0.05 {
		t.Fatalf("alert rate = %v, want ≈0.01", rate)
	}
}

func TestQuantileThresholderDetectsOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := NewQuantileThresholder(0.99)
	for i := 0; i < 1000; i++ {
		q.Alert(0.1 + 0.01*rng.NormFloat64())
	}
	if !q.Alert(0.9) {
		t.Fatal("large outlier must alert")
	}
	if q.Alert(0.1) {
		t.Fatal("baseline value must not alert")
	}
}

func TestQuantileThresholderColdStart(t *testing.T) {
	q := NewQuantileThresholder(0.9)
	for i := 0; i < 4; i++ {
		if q.Alert(float64(i)) {
			t.Fatal("must not alert before five observations")
		}
	}
	if !math.IsInf(q.Threshold(), 1) {
		t.Fatal("threshold should be +Inf during cold start")
	}
}

func TestQuantileThresholderAdaptsToShift(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := NewQuantileThresholder(0.95)
	for i := 0; i < 2000; i++ {
		q.Alert(rng.NormFloat64())
	}
	before := q.Threshold()
	for i := 0; i < 8000; i++ {
		q.Alert(10 + rng.NormFloat64())
	}
	after := q.Threshold()
	if after <= before+5 {
		t.Fatalf("threshold did not adapt to a level shift: %v → %v", before, after)
	}
}

func TestQuantileThresholderPanicsOnBadQ(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("q=%v should panic", q)
				}
			}()
			NewQuantileThresholder(q)
		}()
	}
}

// TestQuantileThresholderSurvivesNonFinite is the regression test for a
// latent bug surfaced by the floatsafe analyzer review: a NaN (or ±Inf)
// score fed to Alert used to flow straight into the P² marker heights.
// Every later comparison against the poisoned markers is false, so the
// estimator froze and the thresholder never alerted again. Non-finite
// observations must be dropped, leaving the estimate finite and live.
func TestQuantileThresholderSurvivesNonFinite(t *testing.T) {
	p := NewQuantileThresholder(0.9)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		p.Alert(rng.Float64())
	}
	before := p.Threshold()
	if math.IsNaN(before) || math.IsInf(before, 0) {
		t.Fatalf("threshold not finite before injection: %v", before)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()} {
		p.Alert(bad)
	}
	if got := p.dropped; got != 4 {
		t.Fatalf("Dropped() = %d, want 4", got)
	}
	if th := p.Threshold(); math.IsNaN(th) || math.IsInf(th, 0) {
		t.Fatalf("threshold poisoned by non-finite scores: %v", th)
	}
	for i := 0; i < 200; i++ {
		p.Alert(rng.Float64())
	}
	if th := p.Threshold(); math.IsNaN(th) || math.IsInf(th, 0) || th <= 0 || th >= 1 {
		t.Fatalf("threshold did not keep tracking after injection: %v", th)
	}
	if !p.Alert(10) {
		t.Fatal("outlier after non-finite injection must still alert")
	}
}

// TestQuantileThresholderNonFiniteDuringColdStart covers the init phase:
// a NaN among the first five observations used to be sorted into the
// marker seed, corrupting every marker height from the start.
func TestQuantileThresholderNonFiniteDuringColdStart(t *testing.T) {
	p := NewQuantileThresholder(0.9)
	vals := []float64{0.1, math.NaN(), 0.2, math.Inf(1), 0.3, 0.4, 0.5}
	for _, v := range vals {
		p.Alert(v)
	}
	if th := p.Threshold(); math.IsNaN(th) || math.IsInf(th, 0) {
		t.Fatalf("cold-start markers poisoned: %v", th)
	}
	if !p.Alert(10) {
		t.Fatal("outlier must alert once five finite scores have seeded the markers")
	}
}

// TestQuantileThresholderDroppedSurvivesRestore pins the diagnostic
// counter into the snapshot: a restored thresholder must report the same
// Dropped() count, not silently reset to zero.
func TestQuantileThresholderDroppedSurvivesRestore(t *testing.T) {
	p := NewQuantileThresholder(0.9)
	for _, v := range []float64{0.1, math.NaN(), 0.2, math.Inf(-1), 0.3, 0.4, 0.5, 0.6} {
		p.Alert(v)
	}
	if p.dropped != 2 {
		t.Fatalf("Dropped() = %d, want 2", p.dropped)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	twin := NewQuantileThresholder(0.9)
	if err := twin.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if twin.dropped != p.dropped {
		t.Fatalf("restored Dropped() = %d, want %d", twin.dropped, p.dropped)
	}
}

// TestThresholderSnapshotBytes pins the bytes the ingest layer persists
// with every stream snapshot: a P² thresholder still buffering its first
// scores, one past that with dropped non-finite scores, and a static
// threshold. Each is pinned by the SHA-256 of its MarshalBinary.
func TestThresholderSnapshotBytes(t *testing.T) {
	cold := NewQuantileThresholder(0.95)
	warm := NewQuantileThresholder(0.9)
	for i := 0; i < 3; i++ {
		cold.Alert(0.1 * float64(i))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := rng.ExpFloat64()
		if i%97 == 0 {
			v = math.NaN()
		}
		warm.Alert(v)
	}
	for _, tc := range []struct {
		name string
		m    interface{ MarshalBinary() ([]byte, error) }
		want string
	}{
		{"quantile cold", cold, "7dceb623e81ef7a3e6896099b134f0a9dd0bfabe2637812dc8cdcb36443c2379"},
		{"quantile warm", warm, "e1a4ee308ac0013adb64c36020c34e747c89a31d2d43dde379da1e5b9b8b0208"},
		{"static", &StaticThresholder{T: 0.625}, "1484002011489c8f323ca9c7a936ea9484f520adf77df99a9ff8e5adada7ca4f"},
	} {
		blob, err := tc.m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes with SHA-256 %s, pinned %s", tc.name, len(blob), got, tc.want)
		}
	}
}
