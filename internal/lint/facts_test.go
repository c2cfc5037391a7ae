package lint

import (
	"bytes"
	"testing"
)

// TestVetxFactRoundTrip pins the serialization leg of the vet protocol:
// facts exported in one process must survive the gob trip through a
// vetx file and resolve under the same (analyzer, package, object,
// type) key in another.
func TestVetxFactRoundTrip(t *testing.T) {
	fs := NewFactSet()
	fs.store.export("hotalloc", "example.com/dep", "Grow", &AllocFact{Why: "append at dep.go:3:9"})
	fs.store.export("hotalloc", "example.com/dep", "Ring.Push", &AllocFact{Why: "slice literal at dep.go:9:2"})

	data, err := fs.Encode()
	if err != nil {
		t.Fatal(err)
	}

	out := NewFactSet()
	if err := out.Decode(data, All()); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("decoded %d facts, want 2", out.Len())
	}
	var af AllocFact
	if !out.store.lookup("hotalloc", "example.com/dep", "Grow", &af) {
		t.Fatal("function fact missing after round trip")
	}
	if af.Why != "append at dep.go:3:9" {
		t.Errorf("Why = %q", af.Why)
	}
	if !out.store.lookup("hotalloc", "example.com/dep", "Ring.Push", &af) {
		t.Fatal("method fact missing after round trip")
	}

	// A key mismatch on any component must miss: wrong analyzer, wrong
	// package, wrong object.
	if out.store.lookup("detrand", "example.com/dep", "Grow", &af) {
		t.Error("fact resolved under the wrong analyzer")
	}
	if out.store.lookup("hotalloc", "example.com/other", "Grow", &af) {
		t.Error("fact resolved under the wrong package")
	}
	if out.store.lookup("hotalloc", "example.com/dep", "Shrink", &af) {
		t.Error("fact resolved under the wrong object")
	}
}

// TestVetxEncodeDeterministic pins byte-stable output: the go command
// caches vetx files by content, so nondeterministic encoding would
// defeat the cache.
func TestVetxEncodeDeterministic(t *testing.T) {
	build := func() []byte {
		fs := NewFactSet()
		fs.store.export("hotalloc", "example.com/b", "F", &AllocFact{Why: "make"})
		fs.store.export("hotalloc", "example.com/a", "G", &AllocFact{Why: "append"})
		fs.store.export("hotalloc", "example.com/a", "T.M", &AllocFact{Why: "make"})
		data, err := fs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := build()
	for i := 0; i < 5; i++ {
		if next := build(); !bytes.Equal(first, next) {
			t.Fatalf("encoding differs between runs:\n%x\n%x", first, next)
		}
	}
}

// TestVetxDecodeFiltersAndRejects pins the tolerant-reader behaviour:
// fact types outside the selected analyzers are skipped (the go command
// caches more than one invocation consumes), empty input is a no-op,
// and corrupt input is an error, not silence.
func TestVetxDecodeFiltersAndRejects(t *testing.T) {
	fs := NewFactSet()
	fs.store.export("hotalloc", "example.com/dep", "F", &AllocFact{Why: "append"})
	data, err := fs.Encode()
	if err != nil {
		t.Fatal(err)
	}

	skipped := NewFactSet()
	if err := skipped.Decode(data, []*Analyzer{DetRand}); err != nil {
		t.Fatal(err)
	}
	if skipped.Len() != 0 {
		t.Errorf("decode with a factless registry kept %d facts, want 0", skipped.Len())
	}

	if err := NewFactSet().Decode(nil, All()); err != nil {
		t.Errorf("empty vetx input: %v, want nil", err)
	}
	if err := NewFactSet().Decode([]byte("garbage"), All()); err == nil {
		t.Error("corrupt vetx input decoded without error")
	}
}
