package scenario_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"streamad/internal/scenario"
)

func TestParseBaseDefaults(t *testing.T) {
	sc, err := scenario.Parse("base(corpus=gauss,channels=3,p=0.05,pool=100)")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.NewStream(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Channels() != 3 {
		t.Fatalf("channels = %d, want 3", s.Channels())
	}
	if got := s.ExactAnomalyCount(100); got != 5 {
		t.Fatalf("ExactAnomalyCount(100) = %d, want exactly ⌊0.05·100⌋ = 5", got)
	}
	if sc.Timing != (scenario.TimingConfig{}) {
		t.Fatalf("timing faults from a content-only spec: %+v", sc.Timing)
	}
}

func TestParseComposedSpecDeterministic(t *testing.T) {
	spec := "dropout(season(drift(base(corpus=gauss,channels=4,p=0.02,pool=256),kind=gradual,at=100,span=50,shift=3),period=64,amp=0.5),at=200,span=20,channels=1,mode=stuck)"
	sc, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.NewStream(99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.NewStream(99)
	if err != nil {
		t.Fatal(err)
	}
	vecsA, labelsA := drain(t, a, 512)
	vecsB, labelsB := drain(t, b, 512)
	assertExactCounts(t, a, labelsA)
	for i := range vecsA {
		if labelsA[i] != labelsB[i] {
			t.Fatalf("step %d: labels diverge", i)
		}
		for c := range vecsA[i] {
			if math.Float64bits(vecsA[i][c]) != math.Float64bits(vecsB[i][c]) {
				t.Fatalf("step %d ch %d: spec-built streams not bit-identical", i, c)
			}
		}
	}
}

func TestParseCorpusBase(t *testing.T) {
	sc, err := scenario.Parse("burst(base(corpus=daphnet,p=0.01,pool=512,len=2600),at=100,span=10,period=200)")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.NewStream(5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Channels() != 9 { // daphnet stand-in is 9-channel
		t.Fatalf("daphnet channels = %d, want 9", s.Channels())
	}
	_, labels := drain(t, s, 600)
	assertExactCounts(t, s, labels)
}

func TestParseHoistsTimingFaults(t *testing.T) {
	sc, err := scenario.Parse("reorder(late(jitter(base(corpus=gauss,channels=2,p=0,pool=64),frac=0.3),p=0.02,delay=100ms),p=0.05)")
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.TimingConfig{JitterFrac: 0.3, LateProb: 0.02, LateDelay: 100 * time.Millisecond, ReorderProb: 0.05}
	if sc.Timing != want {
		t.Fatalf("timing = %+v, want %+v", sc.Timing, want)
	}
	// Timing layers are transparent for the vector stream.
	s, err := sc.NewStream(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Channels() != 2 {
		t.Fatalf("channels = %d, want 2", s.Channels())
	}
}

// parseErrorCases are rejected specs and a fragment of the reason; they
// also seed FuzzScenarioParse.
var parseErrorCases = []struct {
	spec, wantSub string
}{
	{"", "expected a name"},
	{"base", `expected "("`},
	{"base(corpus=nope)", "unknown corpus"},
	{"base(corpus=gauss,bogus=1)", "unknown option"},
	{"drift(base(corpus=gauss),kind=sideways)", "unknown drift kind"},
	{"drift(base(corpus=gauss),at=xyz)", "bad at"},
	{"drift(kind=abrupt)", "needs a nested scenario"},
	{"base(base(corpus=gauss))", "cannot nest"},
	{"warp(base(corpus=gauss))", "unknown injector"},
	{"drift(base(corpus=gauss),at=1,at=2)", "duplicate option"},
	{"jitter(jitter(base(corpus=gauss)))", "duplicate jitter"},
	{"jitter(base(corpus=gauss),frac=2)", "jitter frac"},
	{"late(base(corpus=gauss),p=0.5,delay=0s)", "delay > 0"},
	{"base(corpus=gauss) trailing", "trailing input"},
	{"drift(base(corpus=gauss),base(corpus=gauss))", "more than one nested scenario"},
	{"drift(kind=abrupt,base(corpus=gauss))", "must be the first argument"},
	{"dropout(base(corpus=gauss),mode=explode)", "unknown dropout mode"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := scenario.Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.spec, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	sc, err := scenario.Parse("drift( base( corpus=gauss, channels=2, p=0.1, pool=50 ), kind=abrupt, at=10 )")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.NewStream(2); err != nil {
		t.Fatal(err)
	}
}
