package reservoir

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"streamad/internal/wire"
)

// rowLogValue draws a value that makes coincidences likely: zeros of both
// signs and NaN, whose equality must be decided bit for bit.
func rowLogValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	}
	return rng.NormFloat64()
}

// nextRowLogVector overwrites x with the next vector of a mixed stream:
// mostly the window advanced by row, else an unrelated vector, a repeat
// of x, or an advanced window whose first value changed its sign bit.
func nextRowLogVector(rng *rand.Rand, x []float64, row int) {
	switch k := rng.Intn(10); {
	case k < 6 || k == 9:
		copy(x, x[row:])
		for i := len(x) - row; i < len(x); i++ {
			x[i] = rowLogValue(rng)
		}
		if k == 9 {
			x[0] = math.Float64frombits(math.Float64bits(x[0]) ^ 1<<63)
		}
	case k < 8:
		for i := range x {
			x[i] = rowLogValue(rng)
		}
	}
}

func sameVectors(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestSlidingWindowRowLog drives the row log and a plain ring of copies
// with the same seeded mix of vectors at row 1, N and dim, and after
// every step compares the items, the update and the checkpoint bytes.
// Midway the window is released and restored from its checkpoint, which
// must re-encode byte for byte and keep matching the reference.
func TestSlidingWindowRowLog(t *testing.T) {
	const w, n = 4, 3
	const dim = w * n
	for _, row := range []int{1, n, dim} {
		for _, m := range []int{1, 2, 7, 30} {
			rng := rand.New(rand.NewSource(int64(100*row + m)))
			sw := NewSlidingWindow(m, dim, row)
			var ref [][]float64
			x := make([]float64, dim)
			for step := 0; step < 400; step++ {
				nextRowLogVector(rng, x, row)
				var evicted []float64
				if len(ref) == m {
					evicted, ref = ref[0], ref[1:]
				}
				ref = append(ref, append([]float64(nil), x...))
				u := sw.Observe(x, 0)
				if (u.Kind == Replaced) != (evicted != nil) || (evicted != nil && !sameBits(u.Evicted, evicted)) {
					t.Fatalf("row %d m %d step %d: update %v evicting %v, want eviction of %v", row, m, step, u.Kind, u.Evicted, evicted)
				}
				if !sameVectors(sw.Items(), ref) || sw.Len() != len(ref) {
					t.Fatalf("row %d m %d step %d: items %v, want %v", row, m, step, sw.Items(), ref)
				}
				want := wire.AppendInt(wire.AppendInt(wire.AppendInt(nil, m), dim), len(ref))
				for _, v := range ref {
					want = wire.AppendRawFloat64s(want, v)
				}
				got, err := wire.Append(nil, sw)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("row %d m %d step %d: checkpoint differs from the copying reference (err %v)", row, m, step, err)
				}
				if step == 200 {
					sw.Release()
					if err := wire.Decode(got, sw); err != nil {
						t.Fatal(err)
					}
					if again, _ := wire.Append(nil, sw); !bytes.Equal(again, got) {
						t.Fatalf("row %d m %d: release, decode, encode changed the checkpoint", row, m)
					}
				}
			}
		}
	}

	// A window that keeps sliding at the ingest-light geometry neither
	// allocates nor grows its log.
	const steadyM, channels, rows = 100, 8, 16
	sw := NewSlidingWindow(steadyM, rows*channels, channels)
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, rows*channels)
	slide := func() {
		copy(x, x[channels:])
		for i := len(x) - channels; i < len(x); i++ {
			x[i] = rng.NormFloat64()
		}
		sw.Observe(x, 0)
	}
	for i := 0; i < 3*steadyM; i++ {
		slide()
	}
	size := len(sw.log)
	if allocs := testing.AllocsPerRun(1000, slide); allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v times, want 0", allocs)
	}
	if len(sw.log) != size || size != 2*(rows*channels+(steadyM-1)*channels) {
		t.Fatalf("log holds %d values (%d before the steady run), want %d", len(sw.log), size, 2*(rows*channels+(steadyM-1)*channels))
	}
}
