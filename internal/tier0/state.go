package tier0

import (
	"fmt"

	"streamad/internal/window"
	"streamad/internal/wire"
)

// Each detector's checkpoint leads with a version and the configuration
// fingerprint, then carries the full mutable state. Load validates the
// fingerprint against the receiver before touching any state, so a
// snapshot from a differently-configured detector is rejected cleanly —
// the same contract as the heavy pipelines' Save/Load.

const snapshotVersion = 2

// appendHeader starts a checkpoint with the version and integer
// fingerprint shared by every tier-0 detector.
func appendHeader(dst []byte, fingerprint ...int) []byte {
	dst = wire.AppendInt(dst, snapshotVersion)
	for _, v := range fingerprint {
		dst = wire.AppendInt(dst, v)
	}
	return dst
}

// checkHeader verifies the version and integer fingerprint written by
// appendHeader against the receiver's.
func checkHeader(rd *wire.Reader, kind string, want ...int) error {
	if v := rd.Int(); rd.Err() == nil && v != snapshotVersion {
		return rd.Fail(fmt.Errorf("tier0: %s snapshot version %d, this build reads %d", kind, v, snapshotVersion))
	}
	for _, w := range want {
		if got := rd.Int(); rd.Err() == nil && got != w {
			return rd.Fail(fmt.Errorf("tier0: %s snapshot configuration value %d does not match receiver's %d (fingerprint %v)", kind, got, w, want))
		}
	}
	return rd.Err()
}

// appendRings appends every per-channel ring as its own section.
func appendRings(dst []byte, rings []*window.Ring) ([]byte, error) {
	var err error
	for _, r := range rings {
		if dst, err = wire.AppendSection(dst, r); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendBinary implements wire.Appender.
func (d *EWMA) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendHeader(dst, len(d.mean), d.warmup)
	dst = wire.AppendFloat64(dst, d.alpha)
	dst = wire.AppendInt(dst, d.steps)
	dst = wire.AppendFloat64s(dst, d.mean)
	dst = wire.AppendFloat64s(dst, d.vari)
	for _, c := range d.cnt {
		dst = wire.AppendInt(dst, c)
	}
	return dst, nil
}

// Save returns a full checkpoint of the detector.
func (d *EWMA) Save() ([]byte, error) { return d.AppendBinary(nil) }

// Load restores a checkpoint produced by Save; the receiver's
// configuration must match the snapshot.
func (d *EWMA) Load(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkHeader(&rd, "ewma", len(d.mean), d.warmup); err != nil {
		return err
	}
	if alpha := rd.Float64(); rd.Err() == nil && alpha != d.alpha {
		return fmt.Errorf("tier0: ewma snapshot alpha=%g does not match receiver alpha=%g", alpha, d.alpha)
	}
	d.steps = rd.Int()
	rd.Float64s(d.mean)
	rd.Float64s(d.vari)
	for i := range d.cnt {
		d.cnt[i] = rd.Int()
	}
	return rd.Done()
}

// AppendBinary implements wire.Appender.
func (d *ZScore) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendHeader(dst, len(d.rings), d.w)
	dst = wire.AppendInt(dst, d.steps)
	dst = wire.AppendFloat64s(dst, d.sum)
	dst = wire.AppendFloat64s(dst, d.sumsq)
	return appendRings(dst, d.rings)
}

// Save returns a full checkpoint of the detector.
func (d *ZScore) Save() ([]byte, error) { return d.AppendBinary(nil) }

// Load restores a checkpoint produced by Save; the receiver's
// configuration must match the snapshot.
func (d *ZScore) Load(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkHeader(&rd, "zscore", len(d.rings), d.w); err != nil {
		return err
	}
	d.steps = rd.Int()
	rd.Float64s(d.sum)
	rd.Float64s(d.sumsq)
	for _, r := range d.rings {
		if err := r.UnmarshalBinary(rd.Section()); err != nil {
			return rd.Fail(err)
		}
	}
	return rd.Done()
}

// AppendBinary implements wire.Appender. The sorted views are derived
// state and rebuilt on Load.
func (d *Hampel) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendHeader(dst, len(d.rings), d.w)
	dst = wire.AppendInt(dst, d.steps)
	return appendRings(dst, d.rings)
}

// Save returns a full checkpoint of the detector.
func (d *Hampel) Save() ([]byte, error) { return d.AppendBinary(nil) }

// Load restores a checkpoint produced by Save; the receiver's
// configuration must match the snapshot.
func (d *Hampel) Load(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkHeader(&rd, "hampel", len(d.rings), d.w); err != nil {
		return err
	}
	d.steps = rd.Int()
	for i, r := range d.rings {
		if err := r.UnmarshalBinary(rd.Section()); err != nil {
			return rd.Fail(err)
		}
		// Rebuild the sorted view from the restored ring.
		n := r.Len()
		srt := d.sorted[i]
		for j := 0; j < n; j++ {
			x := r.At(j)
			pos := searchFloat(srt, j, x)
			copy(srt[pos+1:j+1], srt[pos:j])
			srt[pos] = x
		}
		d.ns[i] = n
	}
	return rd.Done()
}

// AppendBinary implements wire.Appender, including the RNG position so
// restored sampling continues the exact draw sequence.
func (d *Density) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendHeader(dst, d.win.Cap(), d.win.Dim(), d.k)
	dst = wire.AppendFloat64(dst, d.alpha)
	dst = wire.AppendFloat64(dst, d.scale)
	dst = wire.AppendInt(dst, d.steps)
	dst = wire.AppendInt64(dst, d.src.SeedValue())
	dst = wire.AppendUint64(dst, d.src.Draws())
	return wire.AppendSection(dst, d.win)
}

// Save returns a full checkpoint of the detector.
func (d *Density) Save() ([]byte, error) { return d.AppendBinary(nil) }

// Load restores a checkpoint produced by Save; the receiver's
// configuration must match the snapshot.
func (d *Density) Load(data []byte) error {
	rd := wire.NewReader(data)
	if err := checkHeader(&rd, "density", d.win.Cap(), d.win.Dim(), d.k); err != nil {
		return err
	}
	if alpha := rd.Float64(); rd.Err() == nil && alpha != d.alpha {
		return fmt.Errorf("tier0: density snapshot alpha=%g does not match receiver alpha=%g", alpha, d.alpha)
	}
	scale, steps := rd.Float64(), rd.Int()
	seed, draws := rd.Int64(), rd.Uint64()
	if err := d.win.UnmarshalBinary(rd.Section()); err != nil {
		return rd.Fail(err)
	}
	if err := rd.Done(); err != nil {
		return err
	}
	d.scale, d.steps = scale, steps
	d.src.Restore(seed, draws)
	return nil
}
