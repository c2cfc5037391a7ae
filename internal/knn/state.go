package knn

import (
	"fmt"

	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender: the reference group, row by row,
// and its normalization scale.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, m.k)
	dst = wire.AppendInt(dst, m.dim)
	dst = wire.AppendFloat64(dst, m.scale)
	dst = wire.AppendInt(dst, len(m.ref))
	for _, r := range m.ref {
		dst = wire.AppendRawFloat64s(dst, r)
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's K
// and Dim must match the snapshot. The reference group is replaced, never
// written in place: clones made for asynchronous fine-tuning share it.
func (m *Model) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if k, dim := rd.Int(), rd.Int(); rd.Err() == nil && (k != m.k || dim != m.dim) {
		return fmt.Errorf("knn: snapshot (k=%d dim=%d) does not match model (k=%d dim=%d)", k, dim, m.k, m.dim)
	}
	scale := rd.Float64()
	n := rd.Count(len(data) / (8 * m.dim))
	slab := make([]float64, n*m.dim)
	rd.RawFloat64s(slab)
	if err := rd.Done(); err != nil {
		return err
	}
	var ref [][]float64
	if n > 0 {
		ref = make([][]float64, n)
		for i := range ref {
			ref[i] = slab[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
		}
	}
	m.ref, m.scale = ref, scale
	return nil
}
