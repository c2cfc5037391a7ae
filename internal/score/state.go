package score

import (
	"fmt"

	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender; Raw has no state.
func (Raw) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler for Raw.
func (Raw) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	return rd.Done()
}

// AppendBinary implements wire.Appender.
func (s *Average) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendFloat64(dst, s.sum)
	return wire.AppendSection(dst, s.ring)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// window size must match the snapshot.
func (s *Average) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	s.sum = rd.Float64()
	if err := s.ring.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	return rd.Done()
}

// AppendBinary implements wire.Appender.
func (s *AnomalyLikelihood) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendFloat64(dst, s.sumL)
	dst = wire.AppendFloat64(dst, s.sumSqL)
	dst = wire.AppendFloat64(dst, s.sumS)
	dst, err := wire.AppendSection(dst, s.long)
	if err != nil {
		return nil, err
	}
	return wire.AppendSection(dst, s.short)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// window sizes must match the snapshot.
func (s *AnomalyLikelihood) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	s.sumL, s.sumSqL, s.sumS = rd.Float64(), rd.Float64(), rd.Float64()
	if err := s.long.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := s.short.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	return rd.Done()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *StaticThresholder) MarshalBinary() ([]byte, error) {
	return wire.AppendFloat64(nil, s.T), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *StaticThresholder) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	t := rd.Float64()
	if err := rd.Done(); err != nil {
		return err
	}
	s.T = t
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler: the five P² marker
// positions, desired positions, increments and heights, plus the counters
// and the pre-initialization buffer.
func (p *QuantileThresholder) MarshalBinary() ([]byte, error) {
	dst := make([]byte, 0, 8*(1+4*5+3+len(p.init)))
	dst = wire.AppendFloat64(dst, p.q)
	for _, a := range [...]*[5]float64{&p.n, &p.np, &p.dn, &p.heights} {
		dst = wire.AppendRawFloat64s(dst, a[:])
	}
	dst = wire.AppendInt(dst, p.count)
	dst = wire.AppendInt(dst, p.dropped)
	return wire.AppendFloat64s(dst, p.init), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// quantile must match the snapshot.
func (p *QuantileThresholder) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if q := rd.Float64(); rd.Err() == nil && q != p.q {
		return fmt.Errorf("score: quantile snapshot q=%v != receiver q=%v", q, p.q)
	}
	for _, a := range [...]*[5]float64{&p.n, &p.np, &p.dn, &p.heights} {
		rd.RawFloat64s(a[:])
	}
	p.count = rd.Int()
	p.dropped = rd.Int()
	p.init = p.init[:0]
	for n := rd.Count(5); n > 0; n-- {
		p.init = append(p.init, rd.Float64())
	}
	return rd.Done()
}
