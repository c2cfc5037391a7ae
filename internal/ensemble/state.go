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

// Walk implements wire.Walker: the configuration fingerprint (member
// count, combiner, verdict boundary, counter cap, pruning policy) and
// ensemble-level step totals, then per member its agreement and pruning
// counters followed by its own full checkpoint, which the member
// validates against its own configuration.
func (e *Ensemble) Walk(w *wire.Walk) {
	size := w.Left()
	w.Expect("ensemble: (version, members, combiner)", snapshotVersion, len(e.members), int(e.agg))
	w.ExpectFloat64("ensemble: verdict", e.verdict)
	w.Expect("ensemble: counter cap", e.counterCap)
	pruneOn := e.pruneOn
	if w.Bool(&pruneOn); w.Decoding() && pruneOn != e.pruneOn {
		w.Fail(fmt.Errorf("ensemble: snapshot pruning %v does not match ensemble %v", pruneOn, e.pruneOn))
	}
	w.Expect("ensemble: prune threshold", e.pruneThreshold())
	w.Int(&e.steps)
	w.Int(&e.readySteps)
	for i, m := range e.members {
		w.Int(&m.pc)
		w.Bool(&m.disabled)
		w.Int(&m.ready)
		w.Int(&m.fineTunes)
		w.Float64(&m.lastScore)
		w.Section(e.Nodes[i].Walk)
	}
	if w.Decoding() {
		e.blobSize = size
	}
}

// AppendBinary implements core.Node.
func (e *Ensemble) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, e) }

// Save returns a binary checkpoint composing every member's full
// checkpoint with the ensemble's own counters. An ensemble restored with
// Load scores bit-identically to an uninterrupted run from the next
// vector on.
func (e *Ensemble) Save() ([]byte, error) { return wire.Marshal(e, &e.blobSize) }

// Load restores a checkpoint produced by Save into this ensemble. The
// ensemble must have been built with the same configuration, which is
// refused before any state is touched, and every member must accept its
// own checkpoint — a member checks its pipeline fingerprint, so member
// order and configuration mismatches are refused too. Members load in
// order: a refused member leaves the members before it, and the
// ensemble's counters, loaded.
func (e *Ensemble) Load(data []byte) error { return wire.Decode(data, e) }
