package reservoir

import "streamad/internal/wire"

// The strategies' random draws are not part of these snapshots: the RNG is
// owned and seeded by the caller that built the reservoir, which records
// the number of draws consumed and replays them on restore. Each strategy
// leads with its (m, dim) geometry, which the receiver's must match.

// Walk implements wire.Walker: the stored vectors oldest first, so the
// head index normalizes to zero on restore. Decoding reads each window
// straight into the log tail, where push collapses it onto the previous
// item's rows when it continues it.
func (s *SlidingWindow) Walk(w *wire.Walk) {
	w.Expect("reservoir: sliding-window (m, dim)", s.m, s.dim)
	n := w.Count(s.count, s.m)
	if !w.Decoding() {
		for i := 0; i < n; i++ {
			w.RawFloat64s(s.item(i))
		}
		return
	}
	if s.log == nil {
		s.alloc() // paged out by Release; restore reallocates
	}
	s.head, s.count, s.tail = 0, 0, 0
	for i := 0; i < n; i++ {
		s.reserve(s.dim)
		x := s.log[s.tail : s.tail+s.dim]
		w.RawFloat64s(x)
		s.push(x)
	}
}

// Walk implements wire.Walker. t is the total observation count driving
// the m/t keep probability.
func (u *UniformReservoir) Walk(w *wire.Walk) {
	w.Expect("reservoir: uniform (m, dim)", u.m, u.dim)
	w.Int(&u.t)
	n := w.Count(u.count, u.m)
	if w.Decoding() {
		if u.items == nil {
			u.alloc() // paged out by Release; restore reallocates
		}
		u.count = n
	}
	for _, v := range u.items[:n] {
		w.RawFloat64s(v)
	}
}

// Walk implements wire.Walker: the heap entries in their exact array
// order, so the restored heap evolves identically to the saved one. Entry
// storage released by paging (or never filled) comes back as one slab.
func (a *AnomalyAwareReservoir) Walk(w *wire.Walk) {
	w.Expect("reservoir: ares (m, dim)", a.m, a.dim)
	n := w.Count(len(a.h.entries), a.m)
	if w.Decoding() {
		if len(a.h.entries) != n {
			slab := make([]float64, n*a.dim)
			a.h.entries = make([]priorityEntry, n, a.m)
			for i := range a.h.entries {
				a.h.entries[i].vec = slab[i*a.dim : (i+1)*a.dim : (i+1)*a.dim]
			}
		}
		if a.evict == nil {
			a.evict = make([]float64, a.dim) // paged out by Release
		}
	}
	for i := range a.h.entries[:n] {
		w.Float64(&a.h.entries[i].p)
		w.RawFloat64s(a.h.entries[i].vec)
	}
}
