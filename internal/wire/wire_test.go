package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// every holds one value for each Walk method.
type every struct {
	u         uint64
	i         int
	i64       int64
	b         bool
	f         float64
	fixed     []float64 // Float64s: the receiver fixes the length
	raw       []float64 // RawFloat64s: no count at all
	s         string
	blob      []byte
	counted   []float64 // Count sizes it when decoding
	child     *every    // a nested section
	geometry  int       // Expect
	rate      float64   // ExpectFloat64
	label     string    // ExpectString
	decodedAt int       // Left at the start of the last decoding walk
}

func (e *every) Walk(w *Walk) {
	if w.Decoding() {
		e.decodedAt = w.Left()
	}
	w.Expect("every", e.geometry)
	w.ExpectFloat64("every rate", e.rate)
	w.ExpectString("every label", e.label)
	w.Uint64(&e.u)
	w.Int(&e.i)
	w.Int64(&e.i64)
	w.Bool(&e.b)
	w.Float64(&e.f)
	w.Float64s(e.fixed)
	w.RawFloat64s(e.raw)
	w.String(&e.s)
	w.Bytes(&e.blob)
	n := w.Count(len(e.counted), 4)
	if w.Decoding() {
		e.counted = make([]float64, n)
	}
	w.RawFloat64s(e.counted)
	if e.child != nil {
		w.Section(e.child.Walk)
	}
}

// blank returns a receiver with e's configuration and shapes only.
func (e *every) blank() *every {
	b := &every{geometry: e.geometry, rate: e.rate, label: e.label,
		fixed: make([]float64, len(e.fixed)), raw: make([]float64, len(e.raw))}
	if e.child != nil {
		b.child = e.child.blank()
	}
	return b
}

func (e *every) bytes(t *testing.T) []byte {
	t.Helper()
	b, err := Append(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nan carries a payload that a walk must keep bit for bit.
var nan = math.Float64frombits(0x7ff8_dead_beef_0001)

// walked returns a value of every kind nested a section deep, its
// encoding, and a blank receiver with that encoding decoded into it.
func walked(t *testing.T) (src *every, blob []byte, dst *every) {
	t.Helper()
	src = &every{
		u: 1<<63 + 7, i: -42, i64: math.MinInt64, b: true, f: nan,
		fixed: []float64{1.5, math.Copysign(0, -1)}, raw: []float64{math.Inf(-1)},
		s: "gate/é", blob: []byte{0, 1, 2}, counted: []float64{3, 4, 5},
		child:    &every{i: 9, label: "inner", fixed: []float64{}, s: "x"},
		geometry: 16, rate: 0.05, label: "outer",
	}
	blob = src.bytes(t)
	dst = src.blank()
	if err := Decode(blob, dst); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return src, blob, dst
}

// TestRoundTrip runs one walk over a value of every kind, nested a section
// deep, in both directions.
func TestRoundTrip(t *testing.T) {
	src, blob, dst := walked(t)
	if again := dst.bytes(t); !bytes.Equal(again, blob) {
		t.Fatal("decoded value re-encodes differently")
	}
	if math.Float64bits(dst.f) != math.Float64bits(nan) || dst.u != src.u || dst.i64 != src.i64 ||
		dst.s != src.s || dst.child.s != "x" || dst.child.i != 9 || dst.decodedAt != len(blob) {
		t.Fatalf("decoded %+v, want %+v", dst, src)
	}
	if &dst.blob[0] != &blob[bytes.Index(blob, []byte{0, 1, 2})] {
		t.Error("Bytes copied instead of aliasing the input")
	}
}

// TestReaderRefusesBadInput runs decoding walks over a table of damaged
// inputs and every prefix of a good one: each is refused, the first
// failure sticks, and a refused configuration value leaves the receiver
// untouched.
func TestReaderRefusesBadInput(t *testing.T) {
	src, blob, dst := walked(t)
	for _, tc := range []struct {
		name   string
		data   []byte
		recv   func() *every
		config bool // refused at a configuration value, before any state
	}{
		{"trailing byte", append(bytes.Clone(blob), 0), dst.blank, false},
		{"geometry", blob, func() *every { r := dst.blank(); r.geometry = 17; return r }, true},
		{"rate", blob, func() *every { r := dst.blank(); r.rate = 0.1; return r }, true},
		{"label", blob, func() *every { r := dst.blank(); r.label = "outes"; return r }, true},
		{"fixed length", blob, func() *every { r := dst.blank(); r.fixed = make([]float64, 3); return r }, false},
		{"nested geometry", blob, func() *every { r := dst.blank(); r.child.geometry = 1; return r }, false},
		{"bool byte", bytes.Replace(bytes.Clone(blob), []byte("\x80\x01"), []byte("\x80\x02"), 1), dst.blank, false},
		{"count over its limit", src.withCounted(5).bytes(t), dst.blank, false},
		{"negative section", append(blob[:len(blob)-len(src.child.bytes(t))-8:len(blob)-len(src.child.bytes(t))-8],
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), dst.blank, false},
	} {
		recv := tc.recv()
		before := recv.bytes(t)
		err := Decode(tc.data, recv)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.config && !bytes.Equal(recv.bytes(t), before) {
			t.Errorf("%s: the refused walk wrote into the receiver", tc.name)
		}
	}
	for n := 0; n < len(blob); n++ {
		if err := Decode(blob[:n], dst.blank()); err == nil {
			t.Errorf("%d-byte prefix accepted", n)
		}
	}

	w := &Walk{decoding: true}
	var i int
	w.Int(&i)
	first := w.Err()
	w.Fail(errors.New("later"))
	s := "kept"
	if w.String(&s); !errors.Is(first, errTruncated) || w.Err() != first || s != "kept" || w.Decoding() || w.Encoding() {
		t.Errorf("first error did not stick: %v then %v", first, w.Err())
	}
}

// withCounted returns a copy of e whose counted slice has n values.
func (e *every) withCounted(n int) *every {
	c := *e
	c.counted = make([]float64, n)
	return &c
}
