package ingest

import "testing"

// TestFreeListBoundsWhatItKeeps: a pipeline-sized buffer given back is
// handed out again; an ensemble-sized one is not pinned.
func TestFreeListBoundsWhatItKeeps(t *testing.T) {
	var r Registry
	r.giveBack(make([]byte, 0, 2<<20))
	if b := r.borrow(); b != nil {
		t.Fatalf("free list kept a %d-byte buffer, want it dropped", cap(b))
	}
	r.giveBack(make([]byte, 7, 100<<10))
	if b := r.borrow(); cap(b) != 100<<10 || len(b) != 0 {
		t.Fatalf("borrow returned len %d cap %d, want the 100 KB buffer, emptied", len(b), cap(b))
	}
}
