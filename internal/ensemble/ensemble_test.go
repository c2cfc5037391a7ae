package ensemble

import (
	"math"
	"testing"

	"streamad/internal/core"
	"streamad/internal/wire"
)

// scriptMember is a deterministic stub pipeline: not ready for warm steps,
// then it emits base + gain·s[0] as both score and nonconformity. It
// checkpoints its step counter so Save/Load round trips are testable.
type scriptMember struct {
	warm  int
	base  float64
	gain  float64
	steps int
}

func (m *scriptMember) Step(s []float64) (core.Result, bool) {
	if len(s) != 1 {
		panic("scriptMember: dim mismatch")
	}
	m.steps++
	if m.steps <= m.warm {
		return core.Result{}, false
	}
	v := m.base + m.gain*s[0]
	return core.Result{Score: v, Nonconformity: v}, true
}

func (m *scriptMember) Steps() int                              { return m.steps }
func (m *scriptMember) FineTunes() int                          { return 0 }
func (m *scriptMember) Children() []core.Node                   { return nil }
func (m *scriptMember) Walk(w *wire.Walk)                       { w.Int(&m.steps) }
func (m *scriptMember) Save() ([]byte, error)                   { return wire.Append(nil, m) }
func (m *scriptMember) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, m) }
func (m *scriptMember) Load(data []byte) error                  { return wire.Decode(data, m) }

func members(ms ...*scriptMember) []core.Node {
	out := make([]core.Node, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

func TestCombiners(t *testing.T) {
	var scratch []float64
	cases := []struct {
		agg     Agg
		values  []float64
		weights []float64
		want    float64
	}{
		{AggMean, []float64{0.1, 0.2, 0.6}, nil, 0.3},
		{AggMax, []float64{0.1, 0.9, 0.6}, nil, 0.9},
		{AggMedian, []float64{0.9, 0.1, 0.6}, nil, 0.6},
		{AggMedian, []float64{0.9, 0.1, 0.6, 0.2}, nil, 0.4},
		{AggTrimmedMean, []float64{0, 0.4, 0.6, 10}, nil, 0.5},
		{AggTrimmedMean, []float64{0.2, 0.4}, nil, 0.3}, // n<3: plain mean
		{AggPerfWeighted, []float64{0, 1}, []float64{1, 3}, 0.75},
		{AggPerfWeighted, []float64{0.2, 0.4}, []float64{0, 0}, 0.3}, // degenerate weights
	}
	for _, c := range cases {
		got := combine(c.agg, c.values, c.weights, &scratch)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("combine(%v, %v, %v) = %v, want %v", c.agg, c.values, c.weights, got, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	one := members(&scriptMember{gain: 1})
	if _, err := New(Config{Members: one}); err == nil {
		t.Error("accepted a 1-member ensemble")
	}
	two := members(&scriptMember{gain: 1}, &scriptMember{gain: 2})
	if _, err := New(Config{Members: two, Labels: []string{"only-one"}}); err == nil {
		t.Error("accepted mismatched label count")
	}
	if _, err := New(Config{Members: two, PruneEnabled: true, PruneBelow: 3}); err == nil {
		t.Error("accepted a positive PruneBelow")
	}
	if _, err := New(Config{Members: two, CounterCap: 8, PruneEnabled: true, PruneBelow: -20}); err == nil {
		t.Error("accepted PruneBelow beyond the counter cap")
	}
	if _, err := New(Config{Members: two, Agg: Agg(99)}); err == nil {
		t.Error("accepted an unknown combiner")
	}
}

// TestStepAggregatesAndWarmup drives three members with different warmups
// through the mean combiner; the ensemble must go ready as soon as one
// member is, and average exactly the ready members.
func TestStepAggregatesAndWarmup(t *testing.T) {
	e, err := New(Config{Members: members(
		&scriptMember{warm: 0, gain: 1},
		&scriptMember{warm: 2, gain: 2},
		&scriptMember{warm: 4, gain: 3},
	)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Step 1: only member 0 ready → score 0.1.
	// Step 3: members 0,1 ready → (0.1+0.2)/2.
	// Step 5: all ready → (0.1+0.2+0.3)/3.
	wants := map[int]float64{1: 0.1, 3: 0.15, 5: 0.2}
	for i := 1; i <= 5; i++ {
		res, ok := e.Step([]float64{0.1})
		if !ok {
			t.Fatalf("step %d: not ready", i)
		}
		if want, present := wants[i]; present && math.Abs(res.Score-want) > 1e-12 {
			t.Fatalf("step %d: score %v, want %v", i, res.Score, want)
		}
	}
	if e.Steps() != 5 || e.ReadySteps() != 5 {
		t.Fatalf("Steps=%d ReadySteps=%d, want 5/5", e.Steps(), e.ReadySteps())
	}
	stats := e.Stats().Members
	if stats[0].Ready != 5 || stats[1].Ready != 3 || stats[2].Ready != 1 {
		t.Fatalf("member ready counts %d/%d/%d, want 5/3/1", stats[0].Ready, stats[1].Ready, stats[2].Ready)
	}
}

// TestPerformanceCountersAndPruning stars a member that always disagrees
// with the consensus: its counter must sink to the prune threshold, the
// policy must disable it (excluding it from the aggregate), and the
// weights of the survivors must carry the score.
func TestPerformanceCountersAndPruning(t *testing.T) {
	// Two members say "anomaly" (0.9), one says "normal" (0.1): the mean
	// consensus is ≥ 0.5, so the dissenter loses a point per step.
	e, err := New(Config{
		Members:      members(&scriptMember{base: 0.9}, &scriptMember{base: 0.9}, &scriptMember{base: 0.1}),
		Agg:          AggPerfWeighted,
		PruneEnabled: true,
		PruneBelow:   -4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var last core.Result
	for i := 0; i < 6; i++ {
		last, _ = e.Step([]float64{0})
	}
	stats := e.Stats().Members
	if !stats[2].Disabled {
		t.Fatalf("dissenting member not disabled after 6 steps: %+v", stats[2])
	}
	if stats[2].Weight != 0 {
		t.Fatalf("disabled member weight %v, want 0", stats[2].Weight)
	}
	if stats[2].Agreement > -4 {
		t.Fatalf("dissenter agreement %d, want ≤ -4", stats[2].Agreement)
	}
	// With the dissenter pruned, only the 0.9 members aggregate.
	if math.Abs(last.Score-0.9) > 1e-12 {
		t.Fatalf("post-prune score %v, want 0.9", last.Score)
	}
	if w := stats[0].Weight + stats[1].Weight; math.Abs(w-1) > 1e-12 {
		t.Fatalf("enabled weights sum to %v, want 1", w)
	}
}

// TestAllPrunedFallsBack: when every ready member is disabled the
// ensemble must still score — over all ready members — rather than go
// silent, and members whose counter recovers must be re-admitted.
func TestAllPrunedFallsBack(t *testing.T) {
	e, err := New(Config{
		Members:      members(&scriptMember{base: 0.4}, &scriptMember{base: 0.6}),
		PruneEnabled: true,
		PruneBelow:   -2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, m := range e.members {
		m.disabled = true
	}
	res, ok := e.Step([]float64{0})
	if !ok {
		t.Fatal("fully-pruned ensemble went silent")
	}
	if math.Abs(res.Score-0.5) > 1e-12 {
		t.Fatalf("fallback score %v, want 0.5 (mean over all ready members)", res.Score)
	}
	// Consensus was "anomaly" (0.5 ≥ 0.5): the 0.6 member agreed, its
	// counter rose to ≥ 0, and the policy re-admitted it; the 0.4 member
	// dissented and stays out.
	stats := e.Stats().Members
	if stats[1].Disabled {
		t.Fatalf("agreeing member not re-admitted: %+v", stats[1])
	}
	if !stats[0].Disabled {
		t.Fatalf("dissenting member re-admitted too early: %+v", stats[0])
	}
}

// TestPanicPropagation: a member panicking on a bad vector must surface
// as a panic of Step (which the dispatcher reports as BadShape) and leave the
// ensemble usable.
func TestPanicPropagation(t *testing.T) {
	e, err := New(Config{Members: members(&scriptMember{}, &scriptMember{})})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Step did not re-panic on member panic")
			}
		}()
		e.Step([]float64{1, 2}) // scriptMember wants dim 1
	}()
	// A good vector still works afterwards.
	if _, ok := e.Step([]float64{0.3}); !ok {
		t.Fatal("ensemble dead after a rejected vector")
	}
}

// TestSaveLoadRoundTrip checkpoints mid-stream and verifies a fresh
// ensemble restored from the blob continues with identical scores and
// counters.
func TestSaveLoadRoundTrip(t *testing.T) {
	build := func() *Ensemble {
		e, err := New(Config{
			Members:      members(&scriptMember{base: 0.8}, &scriptMember{base: 0.2, gain: 1}, &scriptMember{base: 0.5}),
			Agg:          AggPerfWeighted,
			PruneEnabled: true,
			PruneBelow:   -4,
			Labels:       []string{"a", "b", "c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	vec := func(i int) []float64 { return []float64{0.1 * float64(i%7)} }

	ref := build()
	defer ref.Close()
	live := build()
	defer live.Close()
	for i := 0; i < 40; i++ {
		ref.Step(vec(i))
		live.Step(vec(i))
	}
	blob, err := live.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored := build()
	defer restored.Close()
	if err := restored.Load(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != 40 {
		t.Fatalf("restored Steps=%d, want 40", restored.Steps())
	}
	for i := 40; i < 80; i++ {
		want, _ := ref.Step(vec(i))
		got, _ := restored.Step(vec(i))
		if got.Score != want.Score || got.Nonconformity != want.Nonconformity || got.FineTuned != want.FineTuned {
			t.Fatalf("restored ensemble diverged at step %d: %+v vs %+v", i, got, want)
		}
	}
	rs, ws := restored.Stats().Members, ref.Stats().Members
	for i := range rs {
		if rs[i] != ws[i] {
			t.Fatalf("member %d stats diverged: %+v vs %+v", i, rs[i], ws[i])
		}
	}
}

// TestLoadRejectsMismatch: a snapshot from a differently-configured
// ensemble must be refused.
func TestLoadRejectsMismatch(t *testing.T) {
	e, _ := New(Config{Members: members(&scriptMember{}, &scriptMember{})})
	defer e.Close()
	blob, err := e.Save()
	if err != nil {
		t.Fatal(err)
	}
	other, _ := New(Config{Members: members(&scriptMember{}, &scriptMember{}), Agg: AggMedian})
	defer other.Close()
	if err := other.Load(blob); err == nil {
		t.Error("median ensemble accepted a mean ensemble's snapshot")
	}
	three, _ := New(Config{Members: members(&scriptMember{}, &scriptMember{}, &scriptMember{})})
	defer three.Close()
	if err := three.Load(blob); err == nil {
		t.Error("3-member ensemble accepted a 2-member snapshot")
	}
}

// TestConcurrentStepping steps five members for 2000 vectors and checks
// the mean aggregate against a direct recomputation.
func TestConcurrentStepping(t *testing.T) {
	e, err := New(Config{Members: members(
		&scriptMember{gain: 1}, &scriptMember{gain: 2}, &scriptMember{gain: 3},
		&scriptMember{gain: 4}, &scriptMember{gain: 5},
	)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2000; i++ {
		x := 0.001 * float64(i%97)
		res, ok := e.Step([]float64{x})
		if !ok {
			t.Fatalf("step %d not ready", i)
		}
		want := (1 + 2 + 3 + 4 + 5) * x / 5
		if math.Abs(res.Score-want) > 1e-12 {
			t.Fatalf("step %d: score %v, want %v", i, res.Score, want)
		}
	}
}
