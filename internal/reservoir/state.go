package reservoir

import (
	"fmt"

	"streamad/internal/wire"
)

// The strategies' random draws are not part of these snapshots: the RNG is
// owned and seeded by the caller that built the reservoir, which records
// the number of draws consumed and replays them on restore.

// checkGeometry reads the (m, dim) fingerprint every strategy leads with.
func checkGeometry(rd *wire.Reader, kind string, m, dim int) error {
	if sm, sd := rd.Int(), rd.Int(); rd.Err() == nil && (sm != m || sd != dim) {
		return rd.Fail(fmt.Errorf("reservoir: %s snapshot (m=%d dim=%d) != receiver (m=%d dim=%d)",
			kind, sm, sd, m, dim))
	}
	return rd.Err()
}

// AppendBinary implements wire.Appender: the stored vectors oldest first,
// so the head index normalizes to zero on restore.
func (s *SlidingWindow) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, s.m)
	dst = wire.AppendInt(dst, s.dim)
	dst = wire.AppendInt(dst, s.count)
	for i := 0; i < s.count; i++ {
		dst = wire.AppendRawFloat64s(dst, s.items[(s.head+i)%s.m])
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// capacity and dimension must match the snapshot.
func (s *SlidingWindow) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkGeometry(&rd, "sliding-window", s.m, s.dim); err != nil {
		return err
	}
	n := rd.Count(s.m)
	if s.items == nil {
		s.alloc() // paged out by Release; restore reallocates
	}
	for i := 0; i < n; i++ {
		rd.RawFloat64s(s.items[i])
	}
	s.head, s.count = 0, n
	return rd.Done()
}

// AppendBinary implements wire.Appender. t is the total observation count
// driving the m/t keep probability.
func (u *UniformReservoir) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, u.m)
	dst = wire.AppendInt(dst, u.dim)
	dst = wire.AppendInt(dst, u.t)
	dst = wire.AppendInt(dst, u.count)
	for _, v := range u.items[:u.count] {
		dst = wire.AppendRawFloat64s(dst, v)
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// capacity and dimension must match the snapshot.
func (u *UniformReservoir) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkGeometry(&rd, "uniform", u.m, u.dim); err != nil {
		return err
	}
	t := rd.Int()
	n := rd.Count(u.m)
	if u.items == nil {
		u.alloc() // paged out by Release; restore reallocates
	}
	for i := 0; i < n; i++ {
		rd.RawFloat64s(u.items[i])
	}
	u.t, u.count = t, n
	return rd.Done()
}

// AppendBinary implements wire.Appender: the heap entries in their exact
// array order, so the restored heap evolves identically to the saved one.
func (a *AnomalyAwareReservoir) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, a.m)
	dst = wire.AppendInt(dst, a.dim)
	dst = wire.AppendInt(dst, len(a.h.entries))
	for _, e := range a.h.entries {
		dst = wire.AppendFloat64(dst, e.p)
		dst = wire.AppendRawFloat64s(dst, e.vec)
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// capacity and dimension must match the snapshot. Entry storage released
// by paging (or never filled) comes back as one slab.
func (a *AnomalyAwareReservoir) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkGeometry(&rd, "ares", a.m, a.dim); err != nil {
		return err
	}
	n := rd.Count(a.m)
	if len(a.h.entries) != n {
		slab := make([]float64, n*a.dim)
		a.h.entries = make([]priorityEntry, n, a.m)
		for i := range a.h.entries {
			a.h.entries[i].vec = slab[i*a.dim : (i+1)*a.dim : (i+1)*a.dim]
		}
	}
	for i := range a.h.entries {
		a.h.entries[i].p = rd.Float64()
		rd.RawFloat64s(a.h.entries[i].vec)
	}
	if a.evict == nil {
		a.evict = make([]float64, a.dim) // paged out by Release
	}
	return rd.Done()
}
