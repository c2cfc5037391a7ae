package drift

import (
	"fmt"
	"math"

	"streamad/internal/wire"
)

func appendOps(dst []byte, o OpCounts) []byte {
	dst = wire.AppendInt64(dst, o.Adds)
	dst = wire.AppendInt64(dst, o.Mults)
	return wire.AppendInt64(dst, o.Cmps)
}

func readOps(rd *wire.Reader) OpCounts {
	return OpCounts{Adds: rd.Int64(), Mults: rd.Int64(), Cmps: rd.Int64()}
}

// AppendBinary implements wire.Appender.
func (r *Regular) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, r.Interval)
	dst = wire.AppendInt(dst, r.steps)
	return appendOps(dst, r.ops), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// interval must match the snapshot.
func (r *Regular) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	interval, steps, ops := rd.Int(), rd.Int(), readOps(&rd)
	if err := rd.Done(); err != nil {
		return err
	}
	if interval != r.Interval {
		return fmt.Errorf("drift: regular snapshot interval %d != %d", interval, r.Interval)
	}
	r.steps, r.ops = steps, ops
	return nil
}

// AppendBinary implements wire.Appender, including the Welford
// accumulator over all training-set elements.
func (d *MuSigmaChange) AppendBinary(dst []byte) ([]byte, error) {
	n, mean, m2 := d.elems.State()
	dst = wire.AppendFloat64s(dst, d.mean)
	dst = wire.AppendFloat64s(dst, d.refMean)
	dst = wire.AppendFloat64(dst, d.refStd)
	dst = wire.AppendBool(dst, d.hasRef)
	dst = wire.AppendInt(dst, n)
	dst = wire.AppendFloat64(dst, mean)
	dst = wire.AppendFloat64(dst, m2)
	return appendOps(dst, d.ops), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// dimension must match the snapshot.
func (d *MuSigmaChange) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	rd.Float64s(d.mean)
	rd.Float64s(d.refMean)
	d.refStd = rd.Float64()
	d.hasRef = rd.Bool()
	d.elems.SetState(rd.Int(), rd.Float64(), rd.Float64())
	d.ops = readOps(&rd)
	if err := rd.Done(); err != nil {
		return fmt.Errorf("drift: musigma snapshot (receiver dim %d): %w", d.dim, err)
	}
	return nil
}

// AppendBinary implements wire.Appender: the sorted per-channel reference
// samples plus the test throttle position.
func (k *KSWIN) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, k.channels)
	dst = wire.AppendInt(dst, k.repWin)
	dst = wire.AppendFloat64(dst, k.alpha)
	dst = wire.AppendInt(dst, k.CheckEvery)
	dst = wire.AppendInt(dst, k.steps)
	dst = wire.AppendBool(dst, k.correct)
	dst = appendOps(dst, k.ops)
	dst = wire.AppendBool(dst, k.hasRef)
	if k.hasRef {
		dst = wire.AppendInt(dst, len(k.ref[0]))
		for _, ch := range k.ref {
			dst = wire.AppendRawFloat64s(dst, ch)
		}
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// geometry (channels, window) must match the snapshot.
func (k *KSWIN) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if c, w := rd.Int(), rd.Int(); rd.Err() == nil && (c != k.channels || w != k.repWin) {
		return fmt.Errorf("drift: kswin snapshot (N=%d w=%d) != receiver (N=%d w=%d)", c, w, k.channels, k.repWin)
	}
	k.alpha = rd.Float64()
	k.CheckEvery = rd.Int()
	k.steps = rd.Int()
	k.correct = rd.Bool()
	k.ops = readOps(&rd)
	k.hasRef = rd.Bool()
	if !k.hasRef {
		k.ref = nil
		return rd.Done()
	}
	per := rd.Count(math.MaxInt / k.channels)
	if len(k.ref) != k.channels || len(k.ref[0]) != per {
		if rd.Err() != nil {
			return rd.Err()
		}
		slab := make([]float64, k.channels*per)
		k.ref = make([][]float64, k.channels)
		for c := range k.ref {
			k.ref[c] = slab[c*per : (c+1)*per : (c+1)*per]
		}
	}
	for _, ch := range k.ref {
		rd.RawFloat64s(ch)
	}
	return rd.Done()
}

// AppendBinary implements wire.Appender.
func (a *ADWIN) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendFloat64(dst, a.Delta)
	dst = wire.AppendInt(dst, a.MaxWindow)
	dst = wire.AppendInt(dst, a.MinSplit)
	dst = appendOps(dst, a.ops)
	return wire.AppendFloat64s(dst, a.window), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// confidence parameter must match the snapshot.
func (a *ADWIN) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if delta := rd.Float64(); rd.Err() == nil && delta != a.Delta {
		return fmt.Errorf("drift: adwin snapshot delta %v != %v", delta, a.Delta)
	}
	maxWindow, minSplit, ops := rd.Int(), rd.Int(), readOps(&rd)
	n := rd.Count(max(maxWindow, 0))
	if cap(a.window) < n {
		a.window = make([]float64, n)
	}
	a.window = a.window[:n]
	rd.RawFloat64s(a.window)
	a.MaxWindow, a.MinSplit, a.ops = maxWindow, minSplit, ops
	return rd.Done()
}
