package ensemble

import (
	"fmt"

	"streamad/internal/wire"
)

// snapshotVersion identifies the Ensemble.Save envelope layout.
const snapshotVersion = 2

// pruneThreshold is the pruning threshold as checkpoints fingerprint it:
// zero while pruning is off, when the configured value has no effect.
func (e *Ensemble) pruneThreshold() int {
	if !e.pruneOn {
		return 0
	}
	return e.pruneBelow
}

// AppendBinary implements wire.Appender: the configuration fingerprint
// and ensemble-level step totals, then per member its agreement and
// pruning counters followed by its own full checkpoint.
func (e *Ensemble) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, snapshotVersion)
	dst = wire.AppendInt(dst, len(e.members))
	dst = wire.AppendInt(dst, int(e.agg))
	dst = wire.AppendFloat64(dst, e.verdict)
	dst = wire.AppendInt(dst, e.counterCap)
	dst = wire.AppendBool(dst, e.pruneOn)
	dst = wire.AppendInt(dst, e.pruneThreshold())
	dst = wire.AppendInt(dst, e.steps)
	dst = wire.AppendInt(dst, e.readySteps)
	for i, m := range e.members {
		dst = wire.AppendInt(dst, m.pc)
		dst = wire.AppendBool(dst, m.disabled)
		dst = wire.AppendInt(dst, m.ready)
		dst = wire.AppendInt(dst, m.fineTunes)
		dst = wire.AppendFloat64(dst, m.lastScore)
		var err error
		if dst, err = wire.AppendSection(dst, e.Nodes[i]); err != nil {
			return nil, fmt.Errorf("ensemble: member %d (%s): %w", i, m.label, err)
		}
	}
	return dst, nil
}

// Save returns a binary checkpoint composing every member's full
// checkpoint with the ensemble's own counters. An ensemble restored with
// Load scores bit-identically to an uninterrupted run from the next
// vector on.
func (e *Ensemble) Save() ([]byte, error) { return wire.Marshal(e, &e.blobSize) }

// Load restores a checkpoint produced by Save into this ensemble. The
// ensemble must have been built with the same configuration (member
// count, combiner, verdict boundary, counter cap, pruning policy), and
// every member must accept its own blob — a member's Load checks its
// pipeline fingerprint, so member order and configuration mismatches are
// rejected too.
func (e *Ensemble) Load(data []byte) error {
	rd := wire.NewReader(data)
	if v := rd.Int(); rd.Err() != nil || v != snapshotVersion {
		return fmt.Errorf("ensemble: snapshot version %d, this build reads %d", v, snapshotVersion)
	}
	members, agg, verdict := rd.Int(), rd.Int(), rd.Float64()
	counterCap, pruneOn, pruneBelow := rd.Int(), rd.Bool(), rd.Int()
	steps, readySteps := rd.Int(), rd.Int()
	switch {
	case rd.Err() != nil:
		return fmt.Errorf("ensemble: decode snapshot: %w", rd.Err())
	case members != len(e.members):
		return fmt.Errorf("ensemble: snapshot has %d members, ensemble has %d", members, len(e.members))
	case agg != int(e.agg):
		return fmt.Errorf("ensemble: snapshot combiner %v does not match ensemble %v", Agg(agg), e.agg)
	case verdict != e.verdict:
		return fmt.Errorf("ensemble: snapshot verdict %v does not match ensemble %v", verdict, e.verdict)
	case counterCap != e.counterCap:
		return fmt.Errorf("ensemble: snapshot counter cap %d does not match ensemble %d", counterCap, e.counterCap)
	case pruneOn != e.pruneOn || pruneBelow != e.pruneThreshold():
		return fmt.Errorf("ensemble: snapshot pruning policy (%v, %d) does not match ensemble (%v, %d)",
			pruneOn, pruneBelow, e.pruneOn, e.pruneThreshold())
	}
	// Each member validates its blob against its own configuration, so a
	// snapshot of differently configured pipelines fails at that member.
	for i, m := range e.members {
		pc, disabled, ready, fineTunes, lastScore := rd.Int(), rd.Bool(), rd.Int(), rd.Int(), rd.Float64()
		if err := e.Nodes[i].Load(rd.Section()); err != nil {
			return fmt.Errorf("ensemble: member %d (%s): %w", i, m.label, err)
		}
		m.pc, m.disabled, m.ready, m.fineTunes, m.lastScore = pc, disabled, ready, fineTunes, lastScore
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("ensemble: decode snapshot: %w", err)
	}
	e.steps, e.readySteps = steps, readySteps
	e.blobSize = len(data)
	return nil
}
