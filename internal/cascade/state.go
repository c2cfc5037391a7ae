package cascade

import (
	"fmt"

	"streamad/internal/wire"
)

// snapshotVersion identifies the Cascade.Save envelope layout.
const snapshotVersion = 2

// AppendBinary implements wire.Appender: the configuration fingerprint
// and cascade counters, the conformal calibration window, then the
// gate's and every heavy member's own full checkpoint.
func (c *Cascade) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, snapshotVersion)
	dst = wire.AppendFloat64(dst, c.admit)
	dst = wire.AppendInt(dst, c.calib)
	dst = wire.AppendInt(dst, c.minCalib)
	dst = wire.AppendString(dst, c.gateLabel)
	dst = wire.AppendInt(dst, len(c.heavyLabels))
	for _, l := range c.heavyLabels {
		dst = wire.AppendString(dst, l)
	}
	for _, r := range c.heavyReady {
		dst = wire.AppendBool(dst, r)
	}
	dst = wire.AppendBool(dst, c.allHeavyReady)
	dst = wire.AppendInt(dst, c.steps)
	dst = wire.AppendInt(dst, c.screened)
	dst = wire.AppendInt(dst, c.admitted)
	dst = wire.AppendInt(dst, c.forwarded)
	dst = wire.AppendInt(dst, c.fineTunes)
	dst = wire.AppendFloat64(dst, c.lastP)
	dst, err := wire.AppendSection(dst, c.conf)
	if err != nil {
		return nil, fmt.Errorf("cascade: %w", err)
	}
	for i, n := range c.Nodes {
		if dst, err = wire.AppendSection(dst, n); err != nil {
			return nil, fmt.Errorf("cascade: %s: %w", c.childName(i), err)
		}
	}
	return dst, nil
}

// Save returns a binary checkpoint composing the gate's and every heavy
// member's full checkpoint with the conformal calibration window and the
// cascade counters. A cascade restored with Load screens and scores
// bit-identically to an uninterrupted run.
func (c *Cascade) Save() ([]byte, error) { return c.AppendBinary(nil) }

// childName names child i — the gate, then the heavy members — in errors.
func (c *Cascade) childName(i int) string {
	if i == 0 {
		return fmt.Sprintf("gate (%s)", c.gateLabel)
	}
	return fmt.Sprintf("heavy member %d (%s)", i-1, c.heavyLabels[i-1])
}

// Load restores a checkpoint produced by Save. The cascade must have
// been built with the same configuration (admission rate, calibration
// window, member layout); each member additionally validates its own
// blob, so mismatched member configurations are rejected before any
// cascade-level state is touched.
func (c *Cascade) Load(data []byte) error {
	rd := wire.NewReader(data)
	if v := rd.Int(); rd.Err() != nil || v != snapshotVersion {
		return fmt.Errorf("cascade: snapshot version %d, this build reads %d", v, snapshotVersion)
	}
	admit, calib, minCalib, gateLabel, heavy := rd.Float64(), rd.Int(), rd.Int(), rd.String(), rd.Int()
	switch {
	case rd.Err() != nil:
		return fmt.Errorf("cascade: decode snapshot: %w", rd.Err())
	case admit != c.admit:
		return fmt.Errorf("cascade: snapshot admit=%v does not match cascade admit=%v", admit, c.admit)
	case calib != c.calib || minCalib != c.minCalib:
		return fmt.Errorf("cascade: snapshot calibration (%d/%d) does not match cascade (%d/%d)",
			minCalib, calib, c.minCalib, c.calib)
	case gateLabel != c.gateLabel:
		return fmt.Errorf("cascade: snapshot gate %q does not match cascade gate %q", gateLabel, c.gateLabel)
	case heavy != len(c.heavyLabels):
		return fmt.Errorf("cascade: snapshot has %d heavy members, cascade has %d", heavy, len(c.heavyLabels))
	}
	for i, want := range c.heavyLabels {
		if l := rd.String(); rd.Err() == nil && l != want {
			return fmt.Errorf("cascade: snapshot heavy member %d is %q, cascade has %q", i, l, want)
		}
	}
	heavyReady := make([]bool, len(c.heavyReady))
	for i := range heavyReady {
		heavyReady[i] = rd.Bool()
	}
	allReady := rd.Bool()
	steps, screened, admitted, forwarded, fineTunes := rd.Int(), rd.Int(), rd.Int(), rd.Int(), rd.Int()
	lastP := rd.Float64()
	conf := rd.Section()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("cascade: decode snapshot: %w", err)
	}
	for i, n := range c.Nodes {
		if err := n.Load(rd.Section()); err != nil {
			return fmt.Errorf("cascade: %s: %w", c.childName(i), err)
		}
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("cascade: decode snapshot: %w", err)
	}
	if err := c.conf.UnmarshalBinary(conf); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	copy(c.heavyReady, heavyReady)
	c.allHeavyReady = allReady
	c.steps, c.screened, c.admitted, c.forwarded, c.fineTunes = steps, screened, admitted, forwarded, fineTunes
	c.lastP = lastP
	return nil
}
