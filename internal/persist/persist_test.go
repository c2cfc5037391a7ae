package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := &StreamSnapshot{
		ID:        "sensor/rack-1",
		Seq:       412,
		Detector:  []byte{1, 2, 3, 4},
		Threshold: []byte{9, 8},
		Ready:     300,
		Alerts:    7,
	}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadSnapshot("sensor/rack-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, snap)
	}
}

func TestReadSnapshotMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	if _, err := s.ReadSnapshot("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	defer s.Close()
	snap := &StreamSnapshot{ID: "a", Seq: 10, Detector: []byte("payload")}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: CRC must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xFF
	os.WriteFile(path, bad, 0o644)
	if _, err := s.ReadSnapshot("a"); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}

	// Truncate mid-payload: length check must catch it.
	os.WriteFile(path, raw[:len(raw)-3], 0o644)
	if _, err := s.ReadSnapshot("a"); err == nil {
		t.Fatal("truncated snapshot accepted")
	}

	// Wrong magic.
	bad = append([]byte(nil), raw...)
	bad[0] = 'X'
	os.WriteFile(path, bad, 0o644)
	if _, err := s.ReadSnapshot("a"); err == nil {
		t.Fatal("wrong-magic snapshot accepted")
	}
}

func TestWALAppendReadRotate(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	vecs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	for i, v := range vecs {
		if err := s.Append("w", uint64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ReadWAL("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("want 3 records, got %d", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || !reflect.DeepEqual(r.Vector, vecs[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Snapshot rotates the WAL.
	if err := s.WriteSnapshot(&StreamSnapshot{ID: "w", Seq: 3}); err != nil {
		t.Fatal(err)
	}
	recs, err = s.ReadWAL("w")
	if err != nil || len(recs) != 0 {
		t.Fatalf("after rotate: recs=%d err=%v", len(recs), err)
	}
	// Appends keep working after rotation.
	if err := s.Append("w", 3, []float64{7, 8}); err != nil {
		t.Fatal(err)
	}
	recs, _ = s.ReadWAL("w")
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("post-rotate append: %+v", recs)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Append("t", 0, []float64{1})
	s.Append("t", 1, []float64{2})
	s.Close()
	path := filepath.Join(dir, "t.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record short, as a crash mid-write would.
	os.WriteFile(path, raw[:len(raw)-5], 0o644)
	s2, _ := Open(dir)
	defer s2.Close()
	recs, err := s2.ReadWAL("t")
	if !errors.Is(err, ErrTornWAL) {
		t.Fatalf("want ErrTornWAL, got %v", err)
	}
	if len(recs) != 1 || recs[0].Seq != 0 {
		t.Fatalf("want the intact prefix, got %+v", recs)
	}
}

func TestWALMidFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Append("c", 0, []float64{1})
	s.Append("c", 1, []float64{2})
	s.Close()
	path := filepath.Join(dir, "c.wal")
	raw, _ := os.ReadFile(path)
	// Flip a byte inside the first record's vector (header is 12 bytes,
	// record header 16, so offset 12+16 is the first payload byte).
	raw[12+16] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	s2, _ := Open(dir)
	defer s2.Close()
	_, err := s2.ReadWAL("c")
	if err == nil || errors.Is(err, ErrTornWAL) {
		t.Fatalf("want hard CRC error, got %v", err)
	}
}

func TestIDsAndEscaping(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	ids := []string{"plain", "with/slash", "sp ace", "uni·code", "..", "%41"}
	for _, id := range ids {
		if err := s.WriteSnapshot(&StreamSnapshot{ID: id}); err != nil {
			t.Fatalf("snapshot %q: %v", id, err)
		}
	}
	s.Append("wal-only", 0, []float64{1})
	got, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string(nil), ids...), "wal-only")
	for _, id := range want {
		found := false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("IDs() missing %q: %v", id, got)
		}
	}
	// Distinct IDs must map to distinct files: each must read back its own.
	for _, id := range ids {
		snap, err := s.ReadSnapshot(id)
		if err != nil || snap.ID != id {
			t.Fatalf("ReadSnapshot(%q) = %+v, %v", id, snap, err)
		}
	}
}

// TestIDsSkipsNonCanonicalStems: a file whose stem escapeID would not
// have written names no stream — reading it back as one would register
// an empty phantom stream that maps to a different file (or none). IDs
// must skip it as a foreign file and keep only the canonical stem.
func TestIDsSkipsNonCanonicalStems(t *testing.T) {
	for _, tc := range []struct {
		file, id string // id "" = skipped
	}{
		{"a%2F.snap", "a/"},
		{"a%2f.snap", ""}, // lowercase hex
		{"a%-1.snap", ""}, // not hex
		{"x.y.snap", ""},  // '.' is always escaped
		{"a%41.wal", ""},  // 'A' is never escaped
		{"wal%20.wal", "wal "},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.IDs()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{}
		if tc.id != "" {
			want = append(want, tc.id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: IDs() = %q, want %q", tc.file, got, want)
		}
	}
}

func TestRemove(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	s.WriteSnapshot(&StreamSnapshot{ID: "r"})
	s.Append("r", 0, []float64{1})
	if err := s.Remove("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadSnapshot("r"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot survived Remove: %v", err)
	}
	if recs, _ := s.ReadWAL("r"); len(recs) != 0 {
		t.Fatal("WAL survived Remove")
	}
}
