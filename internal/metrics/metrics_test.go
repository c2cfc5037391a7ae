package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func allValid(n int) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = true
	}
	return v
}

func TestRanges(t *testing.T) {
	labels := []bool{false, true, true, false, true, false, false, true}
	got := Ranges(labels)
	want := []Range{{1, 2}, {4, 4}, {7, 7}}
	if len(got) != len(want) {
		t.Fatalf("Ranges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranges = %v, want %v", got, want)
		}
	}
	if len(Ranges(nil)) != 0 {
		t.Fatal("empty labels should have no ranges")
	}
	if r := Ranges([]bool{true, true}); len(r) != 1 || r[0] != (Range{0, 1}) {
		t.Fatalf("all-true = %v", r)
	}
}

// TestRangesRoundTripProperty: ranges must exactly cover the true labels.
func TestRangesRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80)
		labels := make([]bool, n)
		for i := range labels {
			labels[i] = rng.Intn(3) == 0
		}
		rebuilt := make([]bool, n)
		for _, r := range Ranges(labels) {
			if r.Start > r.End || r.Start < 0 || r.End >= n {
				return false
			}
			for i := r.Start; i <= r.End; i++ {
				if rebuilt[i] {
					return false // overlapping ranges
				}
				rebuilt[i] = true
			}
		}
		for i := range labels {
			if labels[i] != rebuilt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{2, 5}
	if r.Len() != 4 || !r.Contains(2) || !r.Contains(5) || r.Contains(6) {
		t.Fatal("Range helpers wrong")
	}
	if !r.Overlaps(Range{5, 9}) || !r.Overlaps(Range{0, 2}) || r.Overlaps(Range{6, 7}) {
		t.Fatal("Overlaps wrong")
	}
}

func TestRangePRPerfect(t *testing.T) {
	labels := []bool{false, true, true, false, false, true, false}
	pred := []bool{false, false, true, false, false, true, false}
	res := RangePR(pred, labels)
	if res.TP != 2 || res.FP != 0 || res.FN != 0 {
		t.Fatalf("confusion = %+v", res)
	}
	if res.Precision != 1 || res.Recall != 1 || res.F1 != 1 {
		t.Fatalf("scores = %+v", res)
	}
}

func TestRangePRPartial(t *testing.T) {
	labels := []bool{false, true, true, false, false, true, false, false}
	// One hit inside the first range, one spurious range, second missed.
	pred := []bool{false, true, false, false, false, false, false, true}
	res := RangePR(pred, labels)
	if res.TP != 1 || res.FP != 1 || res.FN != 1 {
		t.Fatalf("confusion = %+v", res)
	}
	if !almostEq(res.Precision, 0.5, 1e-12) || !almostEq(res.Recall, 0.5, 1e-12) {
		t.Fatalf("P/R = %v/%v", res.Precision, res.Recall)
	}
}

func TestRangePRLongFalseIntervalIsOneFP(t *testing.T) {
	// The paper's observation: a long consecutive false prediction counts
	// once for range-based precision but very negatively for NAB.
	labels := make([]bool, 100)
	labels[10] = true
	pred := make([]bool, 100)
	for i := 40; i < 90; i++ {
		pred[i] = true
	}
	res := RangePR(pred, labels)
	if res.FP != 1 {
		t.Fatalf("FP = %d, want 1 (one merged range)", res.FP)
	}
	scores := make([]float64, 100)
	for i := range pred {
		if pred[i] {
			scores[i] = 1
		}
	}
	nab := NABScore(scores, labels, allValid(100), 0.5)
	if nab > -49 {
		t.Fatalf("NAB = %v, want ≤ −49 (50 FP points / 1 window)", nab)
	}
}

func TestBinarizeRespectsValidity(t *testing.T) {
	scores := []float64{1, 1}
	valid := []bool{false, true}
	pred := Binarize(scores, valid, 0.5)
	if pred[0] || !pred[1] {
		t.Fatalf("Binarize = %v", pred)
	}
}

func TestPRAUCPerfectRanking(t *testing.T) {
	n := 60
	labels := make([]bool, n)
	scores := make([]float64, n)
	for i := 40; i < 50; i++ {
		labels[i] = true
		scores[i] = 1
	}
	for i := 0; i < n; i++ {
		if !labels[i] {
			scores[i] = float64(i) / 1000 // all below 0.5
		}
	}
	auc := PRAUC(scores, labels, allValid(n), 50)
	if auc < 0.95 {
		t.Fatalf("perfect ranking PR-AUC = %v, want ≈1", auc)
	}
}

func TestPRAUCRandomScoresMiddling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 400
	labels := make([]bool, n)
	for i := 100; i < 120; i++ {
		labels[i] = true
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	auc := PRAUC(scores, labels, allValid(n), 50)
	if auc <= 0 || auc >= 1 {
		t.Fatalf("random PR-AUC = %v, want in (0,1)", auc)
	}
}

func TestNABScoreRewardsEarlyDetection(t *testing.T) {
	n := 100
	labels := make([]bool, n)
	for i := 50; i < 70; i++ {
		labels[i] = true
	}
	early := make([]float64, n)
	early[50] = 1
	late := make([]float64, n)
	late[69] = 1
	v := allValid(n)
	e := NABScore(early, labels, v, 0.5)
	l := NABScore(late, labels, v, 0.5)
	if e <= l {
		t.Fatalf("early detection (%v) must beat late (%v)", e, l)
	}
	if e < 0.9 {
		t.Fatalf("early detection score = %v, want ≈1", e)
	}
	if l < -0.01 || l > 0.1 {
		t.Fatalf("window-end detection score = %v, want ≈0", l)
	}
}

func TestNABScoreMissedWindow(t *testing.T) {
	n := 50
	labels := make([]bool, n)
	for i := 10; i < 20; i++ {
		labels[i] = true
	}
	scores := make([]float64, n)
	got := NABScore(scores, labels, allValid(n), 0.5)
	if !almostEq(got, -1, 1e-12) {
		t.Fatalf("all-missed NAB = %v, want −1", got)
	}
}

func TestNABScoreNoWindows(t *testing.T) {
	if got := NABScore([]float64{1}, []bool{false}, []bool{true}, 0.5); got != 0 {
		t.Fatalf("no-anomaly NAB = %v, want 0", got)
	}
}

// TestNABProfileMissPenalty: NABScore's weights are NAB's standard
// profile, under which every missed window costs 1/W.
func TestNABProfileMissPenalty(t *testing.T) {
	n := 100
	labels := make([]bool, n)
	for i := 10; i < 20; i++ {
		labels[i] = true
	}
	scores := make([]float64, n) // everything missed
	v := allValid(n)
	std := NABScore(scores, labels, v, 0.5)
	if std != -1 {
		t.Fatalf("standard miss = %v, want −1", std)
	}
}

// TestNABProfileMatchesNABScore pins NABScore, bit for bit, to the score
// the standard profile's explicit weights gave before they were folded
// into it.
func TestNABProfileMatchesNABScore(t *testing.T) {
	n := 150
	labels := make([]bool, n)
	for i := 90; i < 110; i++ {
		labels[i] = true
	}
	scores := make([]float64, n)
	scores[92] = 1
	scores[30] = 1
	v := allValid(n)
	if got := NABScore(scores, labels, v, 0.5); math.Float64bits(got) != 0xbf971830907a8e40 {
		t.Fatalf("NABScore = %v (%#x), want the standard-profile score -0.022553213899881408", got, math.Float64bits(got))
	}
}

// TestNABUpperBoundProperty: the NAB score never exceeds 1 (perfect early
// detection of every window with zero false positives) for any inputs.
func TestNABUpperBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		labels := make([]bool, n)
		scores := make([]float64, n)
		for i := range labels {
			labels[i] = rng.Intn(8) == 0
			scores[i] = rng.Float64()
		}
		return NABScore(scores, labels, allValid(n), 0.5) <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftLabelsBuffer(t *testing.T) {
	labels := []bool{false, false, false, true, true, false, false, false}
	soft := softLabels(labels, 2)
	if soft[3] != 1 || soft[4] != 1 {
		t.Fatal("core labels must stay 1")
	}
	if !(soft[2] > soft[1] && soft[1] > soft[0]) {
		t.Fatalf("left buffer must decay: %v", soft[:3])
	}
	if !(soft[5] > soft[6]) {
		t.Fatalf("right buffer must decay: %v", soft[5:])
	}
	if soft[0] != 0 {
		t.Fatalf("outside buffer must be 0: %v", soft[0])
	}
	// Zero buffer = hard labels.
	hard := softLabels(labels, 0)
	for i, l := range labels {
		want := 0.0
		if l {
			want = 1
		}
		if hard[i] != want {
			t.Fatal("zero-buffer soft labels must equal hard labels")
		}
	}
}

func TestVUSBufferToleratesNearMisses(t *testing.T) {
	n := 100
	labels := make([]bool, n)
	for i := 50; i < 60; i++ {
		labels[i] = true
	}
	// Detector fires slightly before the window.
	scores := make([]float64, n)
	for i := 46; i < 50; i++ {
		scores[i] = 1
	}
	v := allValid(n)
	noBuffer := VUS(scores, labels, v, 0, 1, 30)
	withBuffer := VUS(scores, labels, v, 10, 5, 30)
	if withBuffer <= noBuffer {
		t.Fatalf("buffered VUS (%v) must exceed unbuffered (%v) for near misses", withBuffer, noBuffer)
	}
}

func TestEvaluateBundle(t *testing.T) {
	n := 80
	labels := make([]bool, n)
	scores := make([]float64, n)
	for i := 30; i < 40; i++ {
		labels[i] = true
		scores[i] = 0.9
	}
	sum := Evaluate(scores, labels, allValid(n), 0.5)
	if sum.Precision != 1 || sum.Recall != 1 {
		t.Fatalf("Evaluate P/R = %v/%v", sum.Precision, sum.Recall)
	}
	if sum.AUC <= 0 || sum.VUS <= 0 {
		t.Fatalf("Evaluate AUC/VUS = %v/%v", sum.AUC, sum.VUS)
	}
	if sum.NAB < 0.9 {
		t.Fatalf("Evaluate NAB = %v", sum.NAB)
	}
}

func TestCalibrateThreshold(t *testing.T) {
	n := 100
	scores := make([]float64, n)
	valid := allValid(n)
	for i := range scores {
		scores[i] = float64(i%10) / 10 // 0..0.9 repeating
	}
	th := CalibrateThreshold(scores, valid, 0.5, 0.9)
	if th < 0.7 || th > 0.9 {
		t.Fatalf("threshold = %v, want ≈0.81", th)
	}
	// Empty valid region → +Inf (nothing flagged).
	if !math.IsInf(CalibrateThreshold(scores, make([]bool, n), 0.5, 0.9), 1) {
		t.Fatal("no valid scores should give +Inf threshold")
	}
}

func TestQuantileThreshold(t *testing.T) {
	scores := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	th := QuantileThreshold(scores, allValid(10), 0.5)
	if !almostEq(th, 4.5, 1e-12) {
		t.Fatalf("median threshold = %v, want 4.5", th)
	}
	if !math.IsInf(QuantileThreshold(scores, make([]bool, 10), 0.5), 1) {
		t.Fatal("no valid scores should give +Inf")
	}
	// Defaulted q.
	if QuantileThreshold(scores, allValid(10), 0) < 8 {
		t.Fatal("default q should be 0.99")
	}
}

func TestThresholdGridDescending(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.3}
	grid := thresholdGrid(scores, allValid(5), 100)
	for i := 1; i < len(grid); i++ {
		if grid[i] >= grid[i-1] {
			t.Fatalf("grid not strictly descending: %v", grid)
		}
	}
	if len(thresholdGrid(nil, nil, 10)) != 0 {
		t.Fatal("empty scores → empty grid")
	}
}
