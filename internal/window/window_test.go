package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamad/internal/wire"
)

func TestRingFillAndEvict(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 || r.Len() != 0 || r.Full() {
		t.Fatal("fresh ring state wrong")
	}
	for i, x := range []float64{1, 2, 3} {
		if _, evicted := r.Push(x); evicted {
			t.Fatalf("push %d evicted prematurely", i)
		}
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	old, evicted := r.Push(4)
	if !evicted || old != 1 {
		t.Fatalf("evicted = %v %v, want 1 true", old, evicted)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if r.At(i) != want[i] {
			t.Fatalf("At(%d) = %v, want %v", i, r.At(i), want[i])
		}
	}
}

// contents returns r's values, oldest first.
func contents(r *Ring) []float64 {
	out := make([]float64, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// copyOf decodes src's checkpoint into dst.
func copyOf(t *testing.T, src, dst wire.Walker) {
	t.Helper()
	blob, err := wire.Append(nil, src)
	if err == nil {
		err = wire.Decode(blob, dst)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRingCopyInto: a wrapped ring's checkpoint copies its contents,
// oldest first, into a fresh ring that shares no storage with it.
func TestRingCopyInto(t *testing.T) {
	r := NewRing(4)
	for _, v := range []float64{1, 2, 3, 4, 5, 6} {
		r.Push(v)
	}
	c := NewRing(4)
	copyOf(t, r, c)
	if got := contents(c); len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("copy holds %v, want [3 4 5 6]", got)
	}
	c.Push(7)
	if r.At(0) != 3 {
		t.Fatal("the copy aliases the ring")
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(2)
	r.Push(1)
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestRingPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRing(0) },
		func() { NewRing(2).At(0) },
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

// TestRingKeepsLastKProperty: after any push sequence, Slice equals the
// last min(k, n) pushed values in order.
func TestRingKeepsLastKProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(10)
		n := rng.Intn(50)
		r := NewRing(k)
		var all []float64
		for i := 0; i < n; i++ {
			v := rng.Float64()
			all = append(all, v)
			r.Push(v)
		}
		start := 0
		if len(all) > k {
			start = len(all) - k
		}
		want := all[start:]
		got := contents(r)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVecRingBasics(t *testing.T) {
	r := NewVecRing(2, 3)
	if r.Dim() != 3 || r.Cap() != 2 {
		t.Fatal("dims wrong")
	}
	r.Push([]float64{1, 2, 3})
	r.Push([]float64{4, 5, 6})
	ev, wasFull := r.Push([]float64{7, 8, 9})
	if !wasFull || ev[0] != 1 || ev[2] != 3 {
		t.Fatalf("evicted = %v, want [1 2 3]", ev)
	}
	if got := r.At(0); got[0] != 4 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := r.At(1); got[0] != 7 {
		t.Fatalf("At(1) = %v", got)
	}
}

func TestVecRingCopiesInput(t *testing.T) {
	r := NewVecRing(2, 2)
	buf := []float64{1, 2}
	r.Push(buf)
	buf[0] = 99
	if r.At(0)[0] != 1 {
		t.Fatal("VecRing aliases pushed slice")
	}
}

// TestVecRingSnapshotFlatten: a ring's checkpoint, its vectors flattened
// oldest first, restores into independent storage.
func TestVecRingSnapshotFlatten(t *testing.T) {
	r := NewVecRing(3, 2)
	r.Push([]float64{1, 2})
	r.Push([]float64{3, 4})
	snap := NewVecRing(3, 2)
	copyOf(t, r, snap)
	if snap.Len() != 2 || snap.At(1)[1] != 4 {
		t.Fatalf("snapshot holds %d vectors, last %v", snap.Len(), snap.At(snap.Len()-1))
	}
	snap.At(0)[0] = 99
	if r.At(0)[0] != 1 {
		t.Fatal("snapshot aliases ring storage")
	}
}

func TestVecRingDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVecRing(2, 2).Push([]float64{1})
}

func TestVecRingReset(t *testing.T) {
	r := NewVecRing(2, 1)
	r.Push([]float64{1})
	r.Reset()
	if r.Len() != 0 || r.Full() {
		t.Fatal("Reset failed")
	}
}

// TestVecRingOrderProperty mirrors the scalar ring property for vectors.
func TestVecRingOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		dim := 1 + rng.Intn(4)
		n := rng.Intn(30)
		r := NewVecRing(k, dim)
		var all [][]float64
		for i := 0; i < n; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			all = append(all, v)
			r.Push(v)
		}
		start := 0
		if len(all) > k {
			start = len(all) - k
		}
		want := all[start:]
		if r.Len() != len(want) {
			return false
		}
		for i := range want {
			got := r.At(i)
			for j := range want[i] {
				if got[j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
