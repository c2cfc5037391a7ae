package window

import (
	"fmt"

	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender: the capacity, then the contents
// oldest first, so the head index normalizes to zero on restore.
func (r *Ring) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, len(r.buf))
	dst = wire.AppendInt(dst, r.count)
	tail := r.buf[r.head:min(r.head+r.count, len(r.buf))]
	dst = wire.AppendRawFloat64s(dst, tail)
	return wire.AppendRawFloat64s(dst, r.buf[:r.count-len(tail)]), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// capacity must match the snapshot.
func (r *Ring) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if c := rd.Int(); rd.Err() == nil && c != len(r.buf) {
		return fmt.Errorf("window: ring snapshot capacity %d != %d", c, len(r.buf))
	}
	n := rd.Count(len(r.buf))
	rd.RawFloat64s(r.buf[:n])
	r.head, r.count = 0, n
	return rd.Done()
}

// AppendBinary implements wire.Appender: the geometry, then the stored
// vectors oldest first, row-major.
func (r *VecRing) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, r.capacity)
	dst = wire.AppendInt(dst, r.dim)
	dst = wire.AppendInt(dst, r.count)
	for i := 0; i < r.count; i++ {
		dst = wire.AppendRawFloat64s(dst, r.At(i))
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// capacity and vector dimension must match the snapshot.
func (r *VecRing) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if c, d := rd.Int(), rd.Int(); rd.Err() == nil && (c != r.capacity || d != r.dim) {
		return fmt.Errorf("window: vec ring snapshot (cap=%d dim=%d) != receiver (cap=%d dim=%d)",
			c, d, r.capacity, r.dim)
	}
	n := rd.Count(r.capacity)
	if r.buf == nil {
		r.alloc() // paged out by Release; restore reallocates
	}
	for i := 0; i < n; i++ {
		rd.RawFloat64s(r.buf[i])
	}
	r.head, r.count = 0, n
	return rd.Done()
}
