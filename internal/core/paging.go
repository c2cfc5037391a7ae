package core

import (
	"fmt"

	"streamad/internal/wire"
)

// Pager is the warm-tier capability: a detector whose sliding-window
// state (representation ring, training set, drift reference, scorer
// windows) can be serialized out and its backing storage freed while the
// model stays resident, then restored bit-identically before the next
// Step. Implemented by *Detector and composed child-wise by Composite.
type Pager interface {
	// PageOut snapshots the window state and releases its backing
	// storage. The returned blob restores the exact state via PageIn.
	// After PageOut, Step panics until PageIn.
	PageOut() ([]byte, error)
	// PageIn restores window state paged out by PageOut and reallocates
	// the backing storage.
	PageIn(data []byte) error
	// Paged reports whether the detector is currently paged out.
	Paged() bool
}

// Releaser is the optional capability of a TrainingSet (and other window
// components) to free its backing storage after being snapshotted; all
// three reservoir strategies implement it.
type Releaser interface {
	Release()
}

// Release frees the representation window's backing storage and the flat
// feature-vector mirror; UnmarshalBinary restores both.
func (r *Representer) Release() {
	r.win.Release()
	r.flat = nil
	r.primed = false
}

// PageOut implements Pager: it snapshots the window state and frees the
// representation window and training set. The model, drift and scorer
// stay resident — warm-tier residency is the model plus O(score-window)
// scalars — and so does a pending fine-tune, which trains on copies of
// its own.
func (d *Detector) PageOut() ([]byte, error) {
	if d.paged {
		return nil, fmt.Errorf("core: detector already paged out")
	}
	// Presized from the previous blob written or restored: one allocation.
	blob, err := wire.Marshal(d, &d.blobSize)
	if err != nil {
		return nil, err
	}
	d.cfg.Representer.Release()
	if rel, ok := d.cfg.TrainingSet.(Releaser); ok {
		rel.Release()
	}
	d.paged = true
	return blob, nil
}

// Paged implements Pager.
func (d *Detector) Paged() bool { return d.paged }
