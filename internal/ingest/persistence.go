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
// store. It must be called before the registry takes traffic. The
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
		if int(r.nlive.Load()) >= r.cfg.MaxStreams {
			return restored, warnings, fmt.Errorf("ingest: stream limit %d reached while restoring %q", r.cfg.MaxStreams, id)
		}
		sh := r.shardFor(id)
		sh.mu.Lock()
		if _, ok := sh.streams[id]; ok {
			sh.mu.Unlock()
			continue
		}
		st, warn, err := r.buildStream(id)
		if err != nil {
			sh.mu.Unlock()
			return restored, warnings, fmt.Errorf("ingest: restore stream %q: %w", id, err)
		}
		sh.streams[id] = st
		r.nlive.Add(1)
		r.history.Add(1)
		sh.mu.Unlock()
		warnings = append(warnings, warn...)
		restored++
	}
	return restored, warnings, nil
}

// buildStream constructs the stream for an id, restoring from the store
// when it holds state (a snapshot, a WAL, or both) — which is also how a
// TTL-evicted stream comes back on its next observe. Without persisted
// state it is simply a fresh detector.
func (r *Registry) buildStream(id string) (*stream, []string, error) {
	det, err := r.cfg.NewDetector(id)
	if err != nil {
		return nil, nil, err
	}
	st := r.newStream(id, det, r.cfg.NewThresholder(id))
	if r.cfg.Store == nil {
		return st, nil, nil
	}
	hadState, warnings, err := r.restoreLocked(st)
	if err != nil {
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
		err = loadSnapshotInto(st, snap)
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
	rejected := replayRecords(st, recs)
	if rejected > 0 {
		warnings = append(warnings, fmt.Sprintf(
			"stream %q: skipped %d WAL record(s) the detector rejected when first observed", st.id, rejected))
	}
	return hadState, warnings, nil
}

// LoadSnapshotState loads a snapshot's detector and thresholder blobs
// into a live pair. It is shared by the registry restore path and the
// cluster standby replicas, so an out-of-registry replica lands in
// exactly the state a restored stream would.
func LoadSnapshotState(det Stepper, th score.Thresholder, snap *persist.StreamSnapshot) error {
	if len(snap.Detector) > 0 {
		ck, ok := det.(Checkpointer)
		if !ok {
			return fmt.Errorf("detector %T does not support checkpointing", det)
		}
		if err := ck.Load(snap.Detector); err != nil {
			return err
		}
	}
	if len(snap.Threshold) > 0 {
		u, ok := th.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("thresholder %T does not support checkpointing", th)
		}
		if err := u.UnmarshalBinary(snap.Threshold); err != nil {
			return err
		}
	}
	return nil
}

// ReplayVector steps one logged vector through a detector/thresholder
// pair with the registry's exact replay semantics: a panicking detector
// rejects the vector (the live path returned BadShape for it), a warming
// detector consumes it silently, and a ready score feeds the alert
// policy. Cluster standby replicas use it to tail a WAL bit-identically.
func ReplayVector(det Stepper, th score.Thresholder, vec []float64) (ready, alert, rejected bool) {
	res, out := safeStep(det, vec)
	if out.panicked {
		return false, false, true
	}
	if !out.ok {
		return false, false, false
	}
	return true, th.Alert(res.Score), false
}

// loadSnapshotInto applies a snapshot to an unshared (or procMu-held)
// stream: blobs, processed boundary and serving counters, not st.seq.
func loadSnapshotInto(st *stream, snap *persist.StreamSnapshot) error {
	if err := LoadSnapshotState(st.det, st.th, snap); err != nil {
		return err
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

// replayRecords re-steps WAL records at or past the stream's current
// boundary into an unshared (or procMu-held) stream, mirroring the live
// dispatcher's outcome handling, and returns how many records the
// detector rejected. Sequence gaps (drop-oldest sheds) replay as the
// live stream experienced them: skipped.
func replayRecords(st *stream, recs []persist.WALRecord) (rejected int) {
	for _, rec := range recs {
		if rec.Seq < st.seqDone {
			continue // already folded into the snapshot
		}
		st.seqDone = rec.Seq + 1
		st.steps.Store(int64(rec.Seq) + 1)
		st.walSince++
		ready, alert, rej := ReplayVector(st.det, st.th, rec.Vector)
		if rej {
			rejected++
			continue
		}
		if ready {
			st.ready.Add(1)
			if alert {
				st.alerts.Add(1)
			}
		}
	}
	st.thBits.Store(math.Float64bits(st.th.Threshold()))
	return rejected
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
