package score

import (
	"slices"

	"streamad/internal/wire"
)

// Walk implements wire.Walker; Raw has no state.
func (Raw) Walk(*wire.Walk) {}

// Walk implements wire.Walker; the receiver's window size must match the
// snapshot.
func (s *Average) Walk(w *wire.Walk) {
	w.Float64(&s.sum)
	w.Section(s.ring.Walk)
}

// Walk implements wire.Walker; the receiver's window sizes must match the
// snapshot.
func (s *AnomalyLikelihood) Walk(w *wire.Walk) {
	w.Float64(&s.sumL)
	w.Float64(&s.sumSqL)
	w.Float64(&s.sumS)
	w.Section(s.long.Walk)
	w.Section(s.short.Walk)
}

// Walk implements wire.Walker.
func (s *StaticThresholder) Walk(w *wire.Walk) { w.Float64(&s.T) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *StaticThresholder) MarshalBinary() ([]byte, error) {
	return wire.Append(make([]byte, 0, 8), s)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *StaticThresholder) UnmarshalBinary(data []byte) error { return wire.Decode(data, s) }

// Walk implements wire.Walker: the five P² marker positions, desired
// positions, increments and heights, plus the counters and the
// pre-initialization buffer. The receiver's quantile must match the
// snapshot.
func (p *QuantileThresholder) Walk(w *wire.Walk) {
	w.ExpectFloat64("score: quantile q", p.q)
	for _, a := range [...]*[5]float64{&p.n, &p.np, &p.dn, &p.heights} {
		w.RawFloat64s(a[:])
	}
	w.Int(&p.count)
	w.Int(&p.dropped)
	n := w.Count(len(p.init), 5)
	if w.Decoding() {
		p.init = slices.Grow(p.init[:0], n)[:n]
	}
	w.RawFloat64s(p.init)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *QuantileThresholder) MarshalBinary() ([]byte, error) {
	return wire.Append(make([]byte, 0, 8*(1+4*5+3+len(p.init))), p)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *QuantileThresholder) UnmarshalBinary(data []byte) error { return wire.Decode(data, p) }
