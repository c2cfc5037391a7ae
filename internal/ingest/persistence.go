// Durability for the ingestion layer: WAL-backed observes, background
// snapshots and crash recovery, moved here from internal/server when the
// registry was sharded. Everything in this file is inert unless
// Config.Store is set.
//
// The recovery invariant: a stream's on-disk state is a snapshot taken
// at sequence number S plus a WAL holding every vector from some point
// ≤ S onward (appends precede scoring; rotation follows the snapshot
// rename). Restoring loads the snapshot and re-steps exactly the records
// with seq ≥ S, so a process killed at any instant resumes with the same
// detector state — and therefore the same future scores — as a process
// that never died. Under the DropOldest policy shed history is simply
// absent from the WAL; replay skips the gaps the same way the live
// stream did.
package ingest

import (
	"encoding"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"streamad/internal/core"
	"streamad/internal/persist"
	"streamad/internal/score"
	"streamad/internal/wire"
)

// borrow takes a scratch buffer, emptied, off the registry's free list
// (r.bufs, at most four of at most maxKeptBuf each) for a path that
// encodes or reads a stream's whole state (~100 KB) just to pass it on:
// checkpoint, restore, page-in.
// Nil (none free) means "allocate". Not a sync.Pool: that is emptied
// every GC cycle, and regrowing such buffers by append-doubling after
// each collection costs more than pooling them saves.
func (r *Registry) borrow() (b []byte) {
	r.bufMu.Lock()
	defer r.bufMu.Unlock()
	if n := len(r.bufs); n > 0 {
		b, r.bufs = r.bufs[n-1][:0], r.bufs[:n-1]
	}
	return b
}

// maxKeptBuf bounds what the free list pins for the life of the process:
// pipeline checkpoints are 53–133 KB and keep their reuse, a 2 MB
// ensemble checkpoint goes back to the collector.
const maxKeptBuf = 256 << 10

// giveBack returns (or donates) a buffer nothing aliases any more.
func (r *Registry) giveBack(b []byte) {
	r.bufMu.Lock()
	defer r.bufMu.Unlock()
	if cap(b) > 0 && cap(b) <= maxKeptBuf && len(r.bufs) < 4 {
		r.bufs = append(r.bufs, b)
	}
}

// RestoreStreams rebuilds every stream persisted in the configured
// store, each the way its first observe would (getOrCreate). It must be
// called before the registry takes traffic. The
// returned warnings describe tolerated damage (a torn WAL tail from a
// mid-write crash); hard corruption — bad magic, version or CRC —
// aborts with an error so damaged state is never half-loaded silently.
func (r *Registry) RestoreStreams() (restored int, warnings []string, err error) {
	if r.cfg.Store == nil {
		return 0, nil, nil
	}
	ids, err := r.cfg.Store.IDs()
	if err != nil {
		return 0, nil, err
	}
	for _, id := range ids {
		_, warn, err := r.getOrCreate(id)
		if err != nil {
			return restored, warnings, fmt.Errorf("ingest: restore stream %q: %w", id, err)
		}
		warnings = append(warnings, warn...)
		restored++
	}
	return restored, warnings, nil
}

// restore builds the unpublished stream for an id from what the store
// holds (a snapshot, a WAL, or both); without a store or persisted state
// it is simply a fresh detector.
func (r *Registry) restore(id string) (*stream, []string, error) {
	st, err := r.newStream(id)
	if err != nil || r.cfg.Store == nil {
		return st, nil, err
	}
	hadState, warnings, err := r.restoreLocked(st)
	if err != nil {
		closeDetector(st.det)
		return nil, nil, err
	}
	st.seq = st.seqDone
	if hadState {
		r.met.coldToHot.Add(1)
	}
	return st, warnings, nil
}

// restoreLocked brings a stream whose detector and thresholder are in
// their initial state to what the store holds: the snapshot, then every
// WAL record at or past it. Unshared or procMu-held; st.seq is not set.
func (r *Registry) restoreLocked(st *stream) (hadState bool, warnings []string, err error) {
	hadState = true
	snap, buf, err := r.cfg.Store.ReadSnapshotInto(st.id, r.borrow())
	if errors.Is(err, os.ErrNotExist) {
		// No snapshot yet: replay whatever WAL exists from scratch.
		hadState = false
		snap, err = &persist.StreamSnapshot{ID: st.id}, nil
	}
	if err == nil {
		err = st.load(snap)
	}
	r.giveBack(buf) // Load and UnmarshalBinary copy out of their input
	if err != nil {
		return false, nil, err
	}

	recs, walErr := r.cfg.Store.ReadWAL(st.id)
	if walErr != nil {
		if !errors.Is(walErr, persist.ErrTornWAL) {
			return false, nil, walErr
		}
		warnings = append(warnings, fmt.Sprintf("stream %q: %v (replaying the intact prefix)", st.id, walErr))
	}
	if len(recs) > 0 {
		hadState = true
	}
	if _, rejected := st.replay(recs); rejected > 0 {
		warnings = append(warnings, fmt.Sprintf(
			"stream %q: skipped %d WAL record(s) the detector rejected when first observed", st.id, rejected))
	}
	return hadState, warnings, nil
}

// load applies a snapshot to an unshared (or procMu-held) stream:
// detector and thresholder blobs, processed boundary and serving
// counters, not st.seq. Empty blobs leave their half as it is.
func (st *stream) load(snap *persist.StreamSnapshot) error {
	if len(snap.Detector) > 0 {
		ck, ok := st.det.(Checkpointer)
		if !ok {
			return fmt.Errorf("detector %T does not support checkpointing", st.det)
		}
		if err := ck.Load(snap.Detector); err != nil {
			return err
		}
	}
	if len(snap.Threshold) > 0 {
		u, ok := st.th.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("thresholder %T does not support checkpointing", st.th)
		}
		if err := u.UnmarshalBinary(snap.Threshold); err != nil {
			return err
		}
	}
	st.seqDone = snap.Seq
	st.snapSeq = snap.Seq
	st.walSince = 0
	st.steps.Store(int64(snap.Seq))
	st.ready.Store(int64(snap.Ready))
	st.alerts.Store(int64(snap.Alerts))
	st.thBits.Store(math.Float64bits(st.th.Threshold()))
	return nil
}

// replay re-steps WAL records at or past the stream's current boundary
// into an unshared (or procMu-held) stream through the live dispatcher's
// fold, core.MaxBatch records at a time, and returns how many it stepped
// and how many of those the detector rejected. Sequence gaps (drop-oldest
// sheds) replay as the live stream experienced them: skipped.
func (st *stream) replay(recs []persist.WALRecord) (replayed, rejected int) {
	vecs := st.vecs[:0]
	for i, rec := range recs {
		if rec.Seq >= st.seqDone { // below it: already folded into the snapshot
			st.seqDone = rec.Seq + 1
			st.steps.Store(int64(rec.Seq) + 1)
			st.walSince++
			replayed++
			vecs = append(vecs, rec.Vector)
		}
		if len(vecs) == core.MaxBatch || i == len(recs)-1 && len(vecs) > 0 {
			for _, res := range st.fold(vecs) {
				if res.BadShape {
					rejected++
				}
			}
			clear(vecs)
			vecs = vecs[:0]
		}
	}
	st.vecs = vecs
	return replayed, rejected
}

// snapshotter is the background checkpoint loop: a timer pass over all
// dirty streams plus per-stream kicks when a WAL crosses SnapshotEvery.
func (r *Registry) snapshotter() {
	defer close(r.snapDone)
	var tick <-chan time.Time
	if r.cfg.SnapshotInterval > 0 {
		t := time.NewTicker(r.cfg.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-r.snapStop:
			return
		case <-tick:
			r.SnapshotAll()
		case id := <-r.snapKick:
			sh := r.shardFor(id)
			sh.mu.Lock()
			st := sh.streams[id]
			sh.mu.Unlock()
			if st != nil {
				// The dispatcher kicks on every vector past the threshold
				// and cannot be snapshotted mid-pass, so one crossing
				// queues a kick per vector of the burst: the first resets
				// walSince and the rest find nothing due.
				if err := r.snapshotStream(id, st, r.cfg.SnapshotEvery); err != nil {
					r.cfg.Logf("streamad: snapshot %q: %v", id, err)
				}
			}
		}
	}
}

// SnapshotAll checkpoints every stream with WAL entries outstanding and
// returns the first error encountered (all streams are still attempted).
func (r *Registry) SnapshotAll() error {
	if r.cfg.Store == nil {
		return nil
	}
	var first error
	r.forEach(func(st *stream) {
		if err := r.snapshotStream(st.id, st, 1); err != nil {
			r.cfg.Logf("streamad: snapshot %q: %v", st.id, err)
			if first == nil {
				first = err
			}
		}
	})
	return first
}

// snapshotStream checkpoints one stream once at least minWAL vectors
// have been logged since its last snapshot (0 forces one): it captures
// the detector and thresholder under the stream's processing lock,
// writes the snapshot atomically and rotates the WAL. Holding procMu
// across the check and the disk write is what makes "snapshot then
// rotate" atomic with respect to the dispatcher's appends, and keeps two
// triggers for the same backlog from both paying for it.
func (r *Registry) snapshotStream(id string, st *stream, minWAL int) error {
	st.procMu.Lock()
	defer st.procMu.Unlock()
	if st.walSince < minWAL {
		return nil
	}
	snap, err := r.checkpointLocked(st, r.borrow())
	if err == nil {
		r.giveBack(snap.Detector) // written out; nobody keeps it
	}
	return err
}

// checkpointLocked captures a stream and, with a store, persists the
// snapshot and rotates the WAL; the caller holds st.procMu. A warm
// stream is paged in and out again: no tier change, no transition
// counted, slot untouched (the second PageOut's blob equals its bytes).
func (r *Registry) checkpointLocked(st *stream, scratch []byte) (*persist.StreamSnapshot, error) {
	warm, err := r.ensureResident(st, false)
	if err != nil {
		return nil, err
	}
	snap, err := buildSnapshot(st.id, st, scratch)
	if err == nil && r.cfg.Store != nil {
		if err = r.cfg.Store.WriteSnapshot(snap); err == nil {
			st.walSince, st.snapSeq = 0, snap.Seq
		}
	}
	if warm {
		if _, perr := st.det.(core.Pager).PageOut(); perr != nil {
			// Resident but still counted warm: the next observe promotes it.
			r.cfg.Logf("streamad: page out %q after its checkpoint: %v", st.id, perr)
		}
	}
	return snap, err
}

// buildSnapshot captures a stream's current state; the caller holds
// st.procMu. The snapshot's Seq is the processed-prefix boundary: queued
// vectors with higher sequence numbers have not been WAL-appended yet,
// so rotating the WAL under procMu cannot lose them. A wire.Appender
// detector is encoded into scratch, if given, and the snapshot is good
// until that is reused; otherwise Save returns a blob of its own.
func buildSnapshot(id string, st *stream, scratch []byte) (*persist.StreamSnapshot, error) {
	var detBlob []byte
	var err error
	if a, ok := st.det.(wire.Appender); ok && scratch != nil {
		detBlob, err = a.AppendBinary(scratch)
	} else if ck, ok := st.det.(Checkpointer); ok {
		detBlob, err = ck.Save()
	} else {
		err = fmt.Errorf("ingest: detector %T does not support checkpointing", st.det)
	}
	if err != nil {
		return nil, err
	}
	thBlob, err := marshalThresholder(st.th)
	if err != nil {
		return nil, err
	}
	return &persist.StreamSnapshot{
		ID:        id,
		Seq:       st.seqDone,
		Detector:  detBlob,
		Threshold: thBlob,
		Ready:     int(st.ready.Load()),
		Alerts:    int(st.alerts.Load()),
	}, nil
}

// marshalThresholder snapshots the alert policy. A thresholder without
// binary support is stored empty and comes back fresh on restore — alert
// counters still persist, only the policy's warm state is lost.
func marshalThresholder(th score.Thresholder) ([]byte, error) {
	m, ok := th.(encoding.BinaryMarshaler)
	if !ok {
		return nil, nil
	}
	return m.MarshalBinary()
}

// Snapshot builds a fresh checkpoint of one stream (the serving layer's
// GET /v1/streams/{id}/snapshot). When a store is configured the
// checkpoint is also persisted, so the call doubles as "force a snapshot
// now". Returns ErrUnknownStream for ids the registry does not hold.
func (r *Registry) Snapshot(id string) (*persist.StreamSnapshot, error) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	st, ok := sh.streams[id]
	sh.mu.Unlock()
	if !ok {
		return nil, ErrUnknownStream
	}
	st.procMu.Lock()
	defer st.procMu.Unlock()
	return r.checkpointLocked(st, nil)
}
