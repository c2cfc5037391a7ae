package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// page is a recognisable blob of n bytes.
func page(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }

func mustWrite(t *testing.T, s *Store, id string, blob []byte) {
	t.Helper()
	if err := s.WritePage(id, blob); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, s *Store, id string, want []byte) {
	t.Helper()
	got, err := s.ReadPage(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadPage(%q) = %d bytes, %v; want the %d written", id, len(got), err, len(want))
	}
}

func swapFileSize(t *testing.T, s *Store) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(s.Dir(), swapName))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestSwapSlots walks the slot store through its life: two slot sizes,
// reuse of a freed slot by the next page of its size (and only of its
// size), truncation when the last slot is freed, and an empty file once
// the last page is.
func TestSwapSlots(t *testing.T) {
	s := openStore(t)
	if _, err := s.ReadPage("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadPage of an unknown id: %v, want os.ErrNotExist", err)
	}
	if err := s.RemovePage("nope"); err != nil {
		t.Fatalf("RemovePage of an unknown id: %v", err)
	}
	small, big := page('s', 100), page('b', 5000) // one 4 KiB slot, one 8 KiB slot
	mustWrite(t, s, "a", small)
	mustWrite(t, s, "b", big)
	mustWrite(t, s, "c", small)
	if got := s.SwapBytes(); got != 4096+8192+4096 {
		t.Fatalf("three pages occupy %d bytes, want 16384", got)
	}
	mustRead(t, s, "a", small)
	mustRead(t, s, "b", big)
	mustRead(t, s, "c", small)

	// A freed slot in the middle is kept and taken by the next page of its
	// size, not by one of another size.
	if err := s.RemovePage("b"); err != nil {
		t.Fatal(err)
	}
	if got := s.SwapBytes(); got != 16384 {
		t.Fatalf("freeing a middle slot changed the size to %d", got)
	}
	mustWrite(t, s, "d", small)
	if got := s.SwapBytes(); got != 16384+4096 {
		t.Fatalf("a 4 KiB page took the free 8 KiB slot (size %d)", got)
	}
	big2 := page('B', 8192)
	mustWrite(t, s, "e", big2)
	if got := s.SwapBytes(); got != 16384+4096 {
		t.Fatalf("an 8 KiB page did not reuse the free 8 KiB slot (size %d)", got)
	}
	mustRead(t, s, "e", big2)
	mustRead(t, s, "a", small)

	// Replacing a page frees the old slot.
	mustWrite(t, s, "a", page('r', 200))
	mustRead(t, s, "a", page('r', 200))
	if got := s.SwapBytes(); got != 16384+4096 {
		t.Fatalf("rewriting a page grew the file to %d", got)
	}

	// File order is a, e, c, d. Freeing c keeps its slot for reuse;
	// freeing d, the file's last slot, gives that one back.
	if err := s.RemovePage("c"); err != nil {
		t.Fatal(err)
	}
	if got := s.SwapBytes(); got != 16384+4096 {
		t.Fatalf("freeing a non-tail slot changed the size to %d", got)
	}
	if err := s.RemovePage("d"); err != nil {
		t.Fatal(err)
	}
	if got, onDisk := s.SwapBytes(), swapFileSize(t, s); got != 16384 || onDisk != got {
		t.Fatalf("after freeing the tail: SwapBytes %d, file %d, want 16384", got, onDisk)
	}
	mustWrite(t, s, "f", small) // into c's old slot
	if got := s.SwapBytes(); got != 16384 {
		t.Fatalf("a page written with a slot free grew the file to %d", got)
	}
	mustRead(t, s, "f", small)
	mustRead(t, s, "e", big2)
	// With the last page goes the whole file, free slots included.
	for _, id := range []string{"f", "a", "e"} {
		if err := s.RemovePage(id); err != nil {
			t.Fatal(err)
		}
	}
	if got, onDisk := s.SwapBytes(), swapFileSize(t, s); got != 0 || onDisk != 0 {
		t.Fatalf("all pages removed: SwapBytes %d, file %d, want 0", got, onDisk)
	}
	mustWrite(t, s, "g", nil) // an empty page still round-trips
	mustRead(t, s, "g", nil)
}

// TestSwapDetectsDamage: a slot whose bytes changed under the index is
// refused by its CRC, and Remove drops a stream's page with the rest.
func TestSwapDetectsDamage(t *testing.T) {
	s := openStore(t)
	mustWrite(t, s, "a", page('a', 3000))
	mustWrite(t, s, "b", page('b', 3000))
	f, err := os.OpenFile(filepath.Join(s.Dir(), swapName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0}, 10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, err := s.ReadPage("a"); err == nil || len(got) != 0 {
		t.Fatalf("damaged page read back: %d bytes, %v", len(got), err)
	}
	mustRead(t, s, "b", page('b', 3000))
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage("b"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("page survived Remove: %v", err)
	}
}

// TestSwapDiesWithItsProcess: Close deletes the swap file, and an Open
// after a crash deletes the one it finds without reading it.
func TestSwapDiesWithItsProcess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, "a", page('a', 100))
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, swapName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("swap file survived Close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, swapName), page('x', 9000), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ReadPage("a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a page outlived its process: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, swapName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open left the dead process's swap file: %v", err)
	}
}

// TestSwapConcurrentDistinctIDs is the registry's access pattern under
// -race: many goroutines, each writing, reading back and removing pages
// of its own ids, while slots change hands between them.
func TestSwapConcurrentDistinctIDs(t *testing.T) {
	s := openStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("s-%d-%d", g, i%3)
				want := page(byte('a'+g), 1000+4096*(i%2)+i)
				if err := s.WritePage(id, want); err != nil {
					t.Error(err)
					return
				}
				var err error
				if buf, err = s.ReadPageInto(id, buf); err != nil || !bytes.Equal(buf, want) {
					t.Errorf("%s round %d: read back %d bytes, %v", id, i, len(buf), err)
					return
				}
				if i%3 != 0 {
					if err := s.RemovePage(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
