package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

type pair struct{ a, b float64 }

func (p pair) AppendBinary(dst []byte) ([]byte, error) {
	return AppendFloat64(AppendFloat64(dst, p.a), p.b), nil
}

// TestRoundTrip writes one of everything, nested two sections deep, and
// reads it back through sub-slices of the one buffer.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001) // payload must survive
	vals := []float64{1.5, -0, math.Inf(-1), nan}
	var buf []byte
	buf = AppendInt(buf, -42)
	buf = AppendUint64(buf, 1<<63+7)
	buf = AppendBool(buf, true)
	buf = AppendString(buf, "gate/é")
	buf = AppendFloat64s(buf, vals)
	buf, outer := BeginSection(buf)
	buf = AppendRawFloat64s(buf, vals[:2])
	buf, err := AppendSection(buf, pair{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	buf = EndSection(buf, outer)
	buf = AppendBytes(buf, nil)

	rd := NewReader(buf)
	if got := rd.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := rd.Uint64(); got != 1<<63+7 {
		t.Errorf("Uint64 = %d", got)
	}
	if !rd.Bool() {
		t.Error("Bool = false")
	}
	if got := rd.String(); got != "gate/é" {
		t.Errorf("String = %q", got)
	}
	floats := make([]float64, len(vals))
	rd.Float64s(floats)
	for i := range vals {
		if math.Float64bits(floats[i]) != math.Float64bits(vals[i]) {
			t.Errorf("float %d: bits %#x, want %#x", i, math.Float64bits(floats[i]), math.Float64bits(vals[i]))
		}
	}
	section := rd.Section()
	if empty := rd.Section(); len(empty) != 0 {
		t.Errorf("empty blob has %d bytes", len(empty))
	}
	if err := rd.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if &section[0] != &buf[len(buf)-8-len(section)] {
		t.Error("Section copied instead of aliasing the input")
	}
	in := NewReader(section)
	raw := make([]float64, 2)
	in.RawFloat64s(raw)
	inner := NewReader(in.Section())
	if a, b := inner.Float64(), inner.Float64(); a != 2 || b != 3 || inner.Done() != nil || in.Done() != nil {
		t.Errorf("nested section read %v %v (errs %v, %v)", a, b, inner.Err(), in.Err())
	}
}

// TestReaderRefusesBadInput covers the decoder's defences: every strict
// prefix is an error, the first error sticks, counts are bounded by the
// receiver and by the bytes left, and trailing bytes are not ignored.
func TestReaderRefusesBadInput(t *testing.T) {
	good := AppendFloat64s(AppendBool(AppendInt(nil, 7), false), []float64{1, 2, 3})
	read := func(b []byte) error {
		rd := NewReader(b)
		rd.Int()
		rd.Bool()
		rd.Float64s(make([]float64, 3))
		return rd.Done()
	}
	if err := read(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if err := read(good[:n]); err == nil {
			t.Errorf("%d-byte prefix accepted", n)
		}
	}
	if err := read(append(bytes.Clone(good), 0)); err == nil {
		t.Error("trailing byte accepted")
	}

	rd := NewReader([]byte{2})
	if rd.Bool(); rd.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
	rd = NewReader(nil)
	rd.Int()
	first := rd.Err()
	rd.Fail(errors.New("later"))
	if !errors.Is(first, ErrTruncated) || rd.Err() != first || rd.Float64() != 0 || rd.Section() != nil {
		t.Errorf("first error did not stick: %v then %v", first, rd.Err())
	}

	huge := AppendInt(nil, math.MaxInt) // a count no input could back
	rd = NewReader(huge)
	if out := rd.NewFloat64s(); out != nil || rd.Err() == nil {
		t.Error("NewFloat64s allocated for a count beyond its input")
	}
	rd = NewReader(AppendInt(nil, 4))
	if rd.Count(3); rd.Err() == nil {
		t.Error("Count above the receiver's limit accepted")
	}
	rd = NewReader(AppendFloat64s(nil, []float64{1, 2}))
	if rd.Float64s(make([]float64, 3)); rd.Err() == nil {
		t.Error("Float64s filled a longer receiver from a shorter slice")
	}
	rd = NewReader(AppendInt(nil, -1))
	if rd.Section(); rd.Err() == nil {
		t.Error("negative section length accepted")
	}
}
