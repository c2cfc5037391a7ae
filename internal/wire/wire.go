// Package wire is the flat checkpoint encoding shared by every detector
// component and the snapshot store: fixed-width little-endian scalars,
// float64 slices as a count plus raw IEEE-754 bits, and length-prefixed
// nested sections. The save side appends a whole component tree into one
// caller-owned buffer (no reflection, no intermediate copies); the load
// side walks sub-slices of the one input buffer through a bounds-checked
// Reader and copies floats straight into the receiver's existing
// backing arrays.
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
)

// Appender is the method set of Go 1.24's encoding.BinaryAppender,
// declared here so go.mod can stay at 1.22: AppendBinary appends the
// receiver's checkpoint to dst and returns the extended buffer.
type Appender interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// ErrTruncated reports input that ended before the value being read.
var ErrTruncated = errors.New("wire: truncated input")

// AppendUint64 appends v as 8 little-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendInt appends v as a 64-bit two's-complement integer.
func AppendInt(dst []byte, v int) []byte { return AppendUint64(dst, uint64(int64(v))) }

// AppendInt64 appends v as a 64-bit two's-complement integer.
func AppendInt64(dst []byte, v int64) []byte { return AppendUint64(dst, uint64(v)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends the IEEE-754 bits of v.
func AppendFloat64(dst []byte, v float64) []byte { return AppendUint64(dst, math.Float64bits(v)) }

// AppendRawFloat64s appends the bits of every element of v with no count;
// the reader must know the length from the receiver's geometry.
func AppendRawFloat64s(dst []byte, v []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(x))
	}
	return dst
}

// AppendFloat64s appends len(v) followed by the elements' bits.
func AppendFloat64s(dst []byte, v []float64) []byte {
	return AppendRawFloat64s(AppendInt(dst, len(v)), v)
}

// AppendBytes appends len(b) followed by b; the reader's Section returns it.
func AppendBytes(dst, b []byte) []byte { return append(AppendInt(dst, len(b)), b...) }

// AppendString appends len(s) followed by the bytes of s.
func AppendString(dst []byte, s string) []byte { return append(AppendInt(dst, len(s)), s...) }

// BeginSection reserves a length prefix for a nested section and returns
// the mark EndSection needs to patch it.
func BeginSection(dst []byte) ([]byte, int) {
	return AppendUint64(dst, 0), len(dst)
}

// EndSection patches the prefix reserved at mark with the number of bytes
// appended since BeginSection.
func EndSection(dst []byte, mark int) []byte {
	binary.LittleEndian.PutUint64(dst[mark:], uint64(len(dst)-mark-8))
	return dst
}

// AppendSection appends a's checkpoint as one length-prefixed section.
func AppendSection(dst []byte, a Appender) ([]byte, error) {
	dst, mark := BeginSection(dst)
	dst, err := a.AppendBinary(dst)
	if err != nil {
		return nil, err
	}
	return EndSection(dst, mark), nil
}

// Marshal returns a's checkpoint in a fresh buffer presized from *size,
// and records the blob's length there. A warmed-up detector's state has
// a fixed size, so a caller that keeps size across calls (and seeds it
// with the length of a blob it loaded) saves in one allocation.
func Marshal(a Appender, size *int) ([]byte, error) {
	blob, err := a.AppendBinary(make([]byte, 0, *size))
	*size = len(blob)
	return blob, err
}

// Reader decodes a buffer written with the Append helpers. The first
// failure sticks: later reads return zero values and Err reports it, so
// a decoder reads a whole header and checks once. Slices returned by
// Section alias the input.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Err returns the first decoding failure, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the first decoding failure, or an error when input is
// left over: a decoder calls it last so trailing garbage is never
// silently accepted.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Fail records err as the Reader's failure unless one is already set,
// and returns the failure in effect. Decoders use it for geometry
// mismatches, so validation shares the sticky-error flow.
func (r *Reader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// take returns the next n bytes, or nil after recording ErrTruncated.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Uint64 reads an 8-byte little-endian value.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a 64-bit integer.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Int64 reads a 64-bit integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads one IEEE-754 value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool reads one byte and rejects anything but 0 and 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.err = fmt.Errorf("wire: bool byte %#x", b[0])
		return false
	}
	return b[0] == 1
}

// Count reads a length and rejects one that is negative, above max, or
// above the bytes left (every counted element occupies at least one), so
// a corrupt count can never drive a large allocation.
func (r *Reader) Count(max int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > max || n > len(r.buf) {
		r.err = fmt.Errorf("wire: count %d out of range (limit %d, %d bytes left)", n, max, len(r.buf))
		return 0
	}
	return n
}

// RawFloat64s fills dst from the next 8·len(dst) bytes.
func (r *Reader) RawFloat64s(dst []float64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Float64s reads a counted slice into dst, which must have exactly the
// encoded length: the copy-into-existing-storage read every fixed-shape
// component uses.
func (r *Reader) Float64s(dst []float64) {
	n := r.Count(math.MaxInt)
	if r.err == nil && n != len(dst) {
		r.err = fmt.Errorf("wire: slice holds %d values, receiver holds %d", n, len(dst))
		return
	}
	r.RawFloat64s(dst)
}

// NewFloat64s reads a counted slice into fresh storage, for state whose
// length the receiver does not fix. A zero count returns nil.
func (r *Reader) NewFloat64s() []float64 {
	n := r.Count(len(r.buf) / 8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	r.RawFloat64s(out)
	return out
}

// Section reads a length-prefixed run of bytes (a nested section or an
// AppendBytes blob) and returns it as a sub-slice of the input.
func (r *Reader) Section() []byte {
	return r.take(r.Count(math.MaxInt))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Section()) }
