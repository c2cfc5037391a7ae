package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"streamad/internal/wire/wiretest"
)

// TestFormatVersionIsTyped pins the upgrade failure: a file whose header
// carries another format version is refused with ErrFormatVersion naming
// both versions — not with the generic damage errors — for both
// versioned file kinds, so streamadd can tell an upgrade from corruption.
// (Pages are not one: the swap file never outlives its process.)
func TestFormatVersionIsTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("a", 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&StreamSnapshot{ID: "b", Seq: 3, Detector: []byte("det")}); err != nil {
		t.Fatal(err)
	}
	// Every kind keeps its version right behind its 8-byte magic.
	for _, name := range []string{"a.wal", "b.snap"} {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:12], 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, walErr := s.ReadWAL("a")
	_, snapErr := s.ReadSnapshot("b")
	for kind, err := range map[string]error{"WAL": walErr, "snapshot": snapErr} {
		var fv ErrFormatVersion
		if !errors.As(err, &fv) {
			t.Errorf("%s: want ErrFormatVersion, got %v", kind, err)
			continue
		}
		if fv.File != 1 || fv.Build != Version {
			t.Errorf("%s: ErrFormatVersion = %+v, want file 1 build %d", kind, fv, Version)
		}
	}
}

// TestOpenRemovesOrphanedTempFiles simulates a crash between a temp
// file's create and its rename, and one with pages out: the next Open
// reclaims the orphans, the dead process's swap file and the page files
// of the one-file-per-page layout, and leaves published files and
// foreign files alone.
func TestOpenRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&StreamSnapshot{ID: "kept", Seq: 1, Detector: []byte("d")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	orphans := []string{"kept.snap.tmp", "gone.snap.tmp", "gone.page.tmp", "kept.page", "pages.swap"}
	keep := []string{"kept.snap", "notes.tmp", "other.txt"}
	for _, name := range append(orphans, keep[1:]...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived Open (stat err %v)", name, err)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Open removed %s: %v", name, err)
		}
	}
	if snap, err := s.ReadSnapshot("kept"); err != nil || snap.Seq != 1 {
		t.Fatalf("published snapshot damaged by the sweep: %+v, %v", snap, err)
	}
}

// TestWriteSnapshotMatchesEncode pins the streamed write against the
// in-memory rendering: the bytes WriteSnapshot puts on disk are exactly
// EncodeSnapshotFile's, and the decoder's blobs alias its input.
func TestWriteSnapshotMatchesEncode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := &StreamSnapshot{ID: "x/1", Seq: 77, Detector: bytes.Repeat([]byte{0xAB}, 4096), Threshold: []byte("th"), Ready: 5, Alerts: 2}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(s.snapPath("x/1"))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := EncodeSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, mem) {
		t.Fatal("WriteSnapshot and EncodeSnapshotFile disagree")
	}
	got, err := DecodeSnapshotFile(mem)
	if err != nil {
		t.Fatal(err)
	}
	got.Detector[0] ^= 0xFF
	if mem[len(mem)-len(got.Detector)] != 0xAB^0xFF {
		t.Fatal("decoded detector blob does not alias the file bytes")
	}
}

// snapshotSeeds and walSeeds are the fuzz targets' seed inputs; the
// committed corpora under testdata/fuzz are exactly these.
func snapshotSeeds(t testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	for name, snap := range map[string]*StreamSnapshot{
		"full":  {ID: "a", Seq: 10, Detector: []byte("payload"), Threshold: []byte{1, 2, 3}, Ready: 4, Alerts: 1},
		"empty": {ID: "sensor/rack-1"},
		"large": {Seq: 1 << 40, Detector: bytes.Repeat([]byte{7}, 300), Ready: -1},
	} {
		file, err := EncodeSnapshotFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = file
	}
	return seeds
}

func walHeader() []byte {
	return binary.LittleEndian.AppendUint32([]byte(walMagic), Version)
}

func walSeeds() map[string][]byte {
	two := appendRecord(appendRecord(walHeader(), 0, []float64{1, 2, 3}), 1, []float64{4, 5, 6})
	return map[string][]byte{
		"two-records": two,
		"torn-tail":   two[:len(two)-5],
		"header-only": walHeader(),
		"empty-vec":   appendRecord(walHeader(), 9, nil),
	}
}

// TestFuzzSeedCorpora keeps the committed seed files current.
func TestFuzzSeedCorpora(t *testing.T) {
	for name, file := range snapshotSeeds(t) {
		wiretest.Seed(t, "FuzzDecodeSnapshotFile", name, file)
	}
	for name, file := range walSeeds() {
		wiretest.Seed(t, "FuzzReadWAL", name, file)
	}
}

// FuzzDecodeSnapshotFile: the snapshot decoder never panics, never
// accepts a file whose CRC does not cover its body, and re-encodes what
// it accepts byte-identically. Seeds: testdata/fuzz (snapshotSeeds).
func FuzzDecodeSnapshotFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := DecodeSnapshotFile(raw)
		if err != nil {
			return
		}
		if sum := binary.LittleEndian.Uint32(raw[20:24]); crc32.Checksum(raw[24:], castagnoli) != sum {
			t.Fatalf("accepted a file whose CRC %#x does not match its body", sum)
		}
		again, err := EncodeSnapshotFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted file re-encodes differently (%d vs %d bytes)", len(again), len(raw))
		}
	})
}

// FuzzReadWAL: the WAL decoder never panics, every record it returns
// passed its CRC (re-encoding the records reproduces the accepted
// prefix of the file byte for byte), and a clean read consumed the whole
// file. Seeds: testdata/fuzz (walSeeds).
func FuzzReadWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := DecodeWAL("fuzz", raw)
		if len(recs) == 0 {
			return
		}
		again := EncodeWAL(recs)
		if !bytes.HasPrefix(raw, again) {
			t.Fatalf("%d accepted records do not re-encode to the file's prefix", len(recs))
		}
		if err == nil && len(again) != len(raw) {
			t.Fatalf("clean read consumed %d of %d bytes", len(again), len(raw))
		}
	})
}
