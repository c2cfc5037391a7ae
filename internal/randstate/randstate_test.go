package randstate

import (
	"math/rand"
	"testing"
)

// TestJumpAheadMatchesReplay checks the closed-form jump against the
// definition — drawing n values one at a time — at positions around the
// generator's lags and well past them.
func TestJumpAheadMatchesReplay(t *testing.T) {
	for _, n := range []uint64{607, 608, 880, 1213, 1214, 4096, 99_991, 1_000_003} {
		want := rand.NewSource(77).(rand.Source64)
		for i := uint64(0); i < n; i++ {
			want.Uint64()
		}
		got := jumpAhead(rand.NewSource(77).(rand.Source64), n)
		for i := 0; i < 2000; i++ {
			if w, g := want.Uint64(), got.next(); w != g {
				t.Fatalf("n=%d: output %d after the jump is %#x, replay gives %#x", n, i, g, w)
			}
		}
	}
}

// TestRestoreFarAheadContinuesSequence drives Restore through both paths
// at the switch-over and checks the values a rand.Rand draws afterwards
// — Int63- and Uint64-based alike — plus the draw count. A restore to a
// count nobody could replay must return promptly too.
func TestRestoreFarAheadContinuesSequence(t *testing.T) {
	ref := NewCountedSource(5)
	for i := 0; i < replayLimit+3; i++ {
		ref.Uint64()
	}
	jumped := NewCountedSource(5)
	jumped.Restore(5, replayLimit+3)
	if jumped.far == nil || jumped.Draws() != ref.Draws() {
		t.Fatalf("restore past the replay limit: far=%v draws=%d, want a jump and %d draws", jumped.far != nil, jumped.Draws(), ref.Draws())
	}
	a, b := rand.New(ref), rand.New(jumped)
	for i := 0; i < 1000; i++ {
		if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
			t.Fatalf("NormFloat64 %d diverged: %v vs %v", i, x, y)
		}
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("Intn %d diverged: %v vs %v", i, x, y)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("Uint64 %d diverged: %v vs %v", i, x, y)
		}
	}
	if ref.Draws() != jumped.Draws() {
		t.Fatalf("draw counts diverged: %d vs %d", ref.Draws(), jumped.Draws())
	}
	jumped.Restore(5, 1<<63+12345)
	jumped.Uint64()
	jumped.Restore(5, 10) // back on the replay path
	replayed := NewCountedSource(5)
	for i := 0; i < 10; i++ {
		replayed.Uint64()
	}
	if jumped.far != nil || jumped.Uint64() != replayed.Uint64() {
		t.Fatal("a near restore after a far one did not return to the replayed sequence")
	}
}
