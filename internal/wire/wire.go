// Package wire is the flat checkpoint encoding shared by every detector
// component and the snapshot store: fixed-width little-endian scalars,
// float64 slices as a count plus raw IEEE-754 bits, and length-prefixed
// nested sections.
//
// A component defines its checkpoint once, as a Walk method that visits
// every field in wire order. The same method encodes — appending the
// whole component tree into one caller-owned buffer, with no reflection
// and no intermediate copies — and decodes, walking sub-slices of the
// one input buffer and copying floats straight into the receiver's
// existing backing arrays. Encode and decode therefore cannot disagree
// about a field.
//
// Every value has exactly one encoding (ints are 8 bytes, bools are 0 or
// 1, lengths are 8 bytes), so a blob a decoder accepts re-encodes
// byte-identically — the property the fuzz targets hold.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Appender is the method set of Go 1.24's encoding.BinaryAppender,
// declared here so go.mod can stay at 1.22: AppendBinary appends the
// receiver's checkpoint to dst and returns the extended buffer.
type Appender interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// AppendUint64 appends v as 8 little-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendInt appends v as a 64-bit two's-complement integer.
func AppendInt(dst []byte, v int) []byte { return AppendUint64(dst, uint64(int64(v))) }

// AppendRawFloat64s appends the bits of every element of v with no count.
func AppendRawFloat64s(dst []byte, v []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(x))
	}
	return dst
}

// AppendBytes appends len(b) followed by b, as Walk.Bytes reads it.
func AppendBytes(dst, b []byte) []byte { return append(AppendInt(dst, len(b)), b...) }

// AppendString appends len(s) followed by the bytes of s, as Walk.String
// reads it.
func AppendString(dst []byte, s string) []byte { return append(AppendInt(dst, len(s)), s...) }

// Walker is a checkpointed component: Walk visits its state in wire
// order through w, which writes each value when encoding and reads it
// back into the same place when decoding. Work only a restore needs —
// reallocating storage that paging released, rebuilding derived state —
// sits behind w.Decoding(). Loop bounds come from walked counts, which
// read as 0 once a decoding walk has failed.
type Walker interface {
	Walk(w *Walk)
}

// Walk is one encoding or decoding pass over a component tree. The first
// failure sticks, so a walk checks once: a decoding walk reads and writes
// nothing after the value it refused, and a failed encoding walk's
// output is discarded.
type Walk struct {
	buf      []byte // encoding: the output; decoding: the current section's unread input
	decoding bool
	err      error
}

// Append appends v's checkpoint to dst.
func Append(dst []byte, v Walker) ([]byte, error) {
	out, err := walk(v, dst, false)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Decode restores data, a checkpoint Append wrote, into v, refusing
// input left over after v's walk. Decoded state never aliases data.
func Decode(data []byte, v Walker) error {
	_, err := walk(v, data, true)
	return err
}

// walks recycles Walk values: a Walk handed to an interface method
// escapes, and a checkpoint or page call should allocate nothing beyond
// its own buffer. A Walker must not keep w past its Walk.
var walks = sync.Pool{New: func() any { return new(Walk) }}

// walk runs v's walk over buf in one direction and returns the buffer it
// leaves: the output when encoding.
func walk(v Walker, buf []byte, decoding bool) ([]byte, error) {
	w := walks.Get().(*Walk)
	*w = Walk{buf: buf, decoding: decoding}
	v.Walk(w)
	err := w.done()
	buf = w.buf
	*w = Walk{}
	walks.Put(w)
	if err != nil {
		op := "encode"
		if decoding {
			op = "decode"
		}
		err = fmt.Errorf("wire: %s %T: %w", op, v, err)
	}
	return buf, err
}

// Marshal returns v's checkpoint in a fresh buffer presized from *size,
// and records the blob's length there. A warmed-up detector's state has
// a fixed size, so a caller that keeps size across calls (and seeds it
// with the length of a blob it loaded) saves in one allocation.
func Marshal(v Walker, size *int) ([]byte, error) {
	blob, err := Append(make([]byte, 0, *size), v)
	*size = len(blob)
	return blob, err
}

// Decoding reports whether w reads into the walked state and has not
// failed: the guard for work only a restore does. Encoding is its
// counterpart. Both are false once the walk has failed, so neither
// side's own work runs on a refused checkpoint.
func (w *Walk) Decoding() bool { return w.decoding && w.err == nil }

// Encoding reports whether w writes the walked state and has not failed.
func (w *Walk) Encoding() bool { return !w.decoding && w.err == nil }

// Err returns the walk's first failure, if any.
func (w *Walk) Err() error { return w.err }

// Fail records err as the walk's failure unless one is already set.
func (w *Walk) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Left returns the number of input bytes left in the section being
// decoded: at the start of a component's walk, its checkpoint's length.
func (w *Walk) Left() int { return len(w.buf) }

// done refuses input left over in the current section.
func (w *Walk) done() error {
	if w.err == nil && w.decoding && len(w.buf) != 0 {
		w.err = fmt.Errorf("wire: %d trailing bytes", len(w.buf))
	}
	return w.err
}

// take returns the next n input bytes, or nil after recording a failure.
func (w *Walk) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if n < 0 || n > len(w.buf) {
		w.err = errTruncated
		return nil
	}
	b := w.buf[:n]
	w.buf = w.buf[n:]
	return b
}

// The scalar methods run once per value — once per tree node in a
// forest — so each keeps its encoding branch small enough to inline and
// leaves the read to read64. An encoding walk keeps appending after a
// failure; Append discards its output.

// Uint64 walks an 8-byte little-endian value.
func (w *Walk) Uint64(v *uint64) {
	if w.decoding {
		*v = w.read64(*v)
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, *v)
}

// Int64 walks a 64-bit two's-complement integer.
func (w *Walk) Int64(v *int64) {
	if w.decoding {
		*v = int64(w.read64(uint64(*v)))
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(*v))
}

// Int walks an int as a 64-bit two's-complement integer.
func (w *Walk) Int(v *int) {
	if w.decoding {
		*v = int(int64(w.read64(uint64(*v))))
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(*v))
}

// Float64 walks the IEEE-754 bits of one value, NaN payloads included.
func (w *Walk) Float64(v *float64) {
	if w.decoding {
		*v = math.Float64frombits(w.read64(math.Float64bits(*v)))
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(*v))
}

// read64 returns the next 8 input bytes as a little-endian value, or old
// once the walk has failed.
func (w *Walk) read64(old uint64) uint64 {
	if b := w.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return old
}

// Bool walks one byte, 0 or 1; decoding refuses any other. The two
// appends keep it within the inlining budget, which one append of a
// computed byte exceeds.
func (w *Walk) Bool(v *bool) {
	if w.decoding {
		w.readBool(v)
	} else if *v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *Walk) readBool(v *bool) {
	b := w.take(1)
	switch {
	case b == nil:
	case b[0] > 1:
		w.err = fmt.Errorf("wire: bool byte %#x", b[0])
	default:
		*v = b[0] == 1
	}
}

// Count walks a length n and returns it; decoding returns the one read
// and refuses one that is negative, above max, or above the bytes left
// (every counted element occupies at least one), so a corrupt count can
// never drive a large allocation. A refused count reads as 0.
func (w *Walk) Count(n, max int) int {
	w.Int(&n)
	switch {
	case !w.decoding:
		return n
	case w.err != nil:
		return 0
	case n < 0 || n > max || n > len(w.buf):
		w.err = fmt.Errorf("wire: count %d out of range (limit %d, %d bytes left)", n, max, len(w.buf))
		return 0
	}
	return n
}

// RawFloat64s walks the bits of every element of s with no count: the
// length comes from the receiver's geometry.
func (w *Walk) RawFloat64s(s []float64) {
	if w.decoding {
		w.readRaw(s)
		return
	}
	w.buf = AppendRawFloat64s(w.buf, s)
}

func (w *Walk) readRaw(s []float64) {
	if b := w.take(8 * len(s)); b != nil {
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Float64s walks len(s) and the elements' bits. Decoding fills s, which
// must have exactly the encoded length: the read into existing storage
// every fixed-shape component uses.
func (w *Walk) Float64s(s []float64) {
	if n := w.Count(len(s), math.MaxInt); w.err == nil && n != len(s) {
		w.err = fmt.Errorf("wire: slice holds %d values, receiver holds %d", n, len(s))
	}
	w.RawFloat64s(s)
}

// String walks a length-prefixed string; a decoded one is a copy.
func (w *Walk) String(s *string) {
	n := w.Count(len(*s), math.MaxInt)
	if !w.decoding {
		w.buf = append(w.buf, *s...)
		return
	}
	if b := w.take(n); w.err == nil {
		*s = string(b)
	}
}

// Bytes walks a length-prefixed run of bytes. A decoded one aliases the
// input, so it is for a caller that decodes it in turn.
func (w *Walk) Bytes(b *[]byte) {
	n := w.Count(len(*b), math.MaxInt)
	if !w.decoding {
		w.buf = append(w.buf, *b...)
		return
	}
	if s := w.take(n); w.err == nil {
		*b = s
	}
}

// Expect walks a receiver's configuration values: encoding writes them,
// decoding reads as many and refuses the first that differs from the
// receiver's, before anything after it is read or written. what names
// the component in the refusal.
func (w *Walk) Expect(what string, vals ...int) {
	for i, want := range vals {
		got := want
		if w.Int(&got); w.err == nil && got != want {
			// A copy of vals, so that the caller's variadic array does
			// not escape and a walk that matches allocates nothing.
			w.err = fmt.Errorf("%s: snapshot value %d at position %d does not match the receiver's configuration %v",
				what, got, i, append([]int(nil), vals...))
		}
	}
}

// ExpectFloat64 is Expect for one floating-point configuration value,
// compared bit for bit so that what is accepted re-encodes unchanged.
func (w *Walk) ExpectFloat64(what string, want float64) {
	got := want
	if w.Float64(&got); w.err == nil && math.Float64bits(got) != math.Float64bits(want) {
		w.err = fmt.Errorf("%s: snapshot value %v does not match the receiver's %v", what, got, want)
	}
}

// ExpectString is Expect for one string configuration value.
func (w *Walk) ExpectString(what, want string) {
	n := w.Count(len(want), math.MaxInt)
	if !w.decoding {
		w.buf = append(w.buf, want...)
		return
	}
	if got := w.take(n); w.err == nil && string(got) != want {
		w.err = fmt.Errorf("%s: snapshot value %q does not match the receiver's %q", what, got, want)
	}
}

// Section walks a child component as one length-prefixed nested
// section, through its walk method (a method value such as ring.Walk,
// which does not allocate). Encoding reserves the prefix and patches it
// in place once the child is written; decoding walks the child over the
// section's sub-slice of the input and refuses bytes it leaves over.
func (w *Walk) Section(walk func(*Walk)) {
	if !w.decoding {
		mark := len(w.buf)
		w.buf = AppendUint64(w.buf, 0)
		walk(w)
		binary.LittleEndian.PutUint64(w.buf[mark:], uint64(len(w.buf)-mark-8))
		return
	}
	sec := w.take(w.Count(0, math.MaxInt))
	if w.err != nil {
		return
	}
	rest := w.buf
	w.buf = sec
	walk(w)
	w.done()
	w.buf = rest
}

// errTruncated reports input that ended before the value being read.
var errTruncated = errors.New("wire: truncated input")
