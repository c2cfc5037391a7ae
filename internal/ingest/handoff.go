// Stream handoff: the registry side of cluster migration and failover.
// A stream leaves a node as a snapshot plus WAL tail (Handoff), enters a
// node by replaying exactly that state (Adopt) or by promoting an
// already-warm replica (Install), and is tailed remotely by sequence
// number (WALTail). Every transfer carries a CRC-32C fingerprint of the
// live state; because Save/Load round-trips are bit-identical (the PR 1
// restore invariant), the target recomputing the same fingerprint after
// replay proves the migrated stream will score future vectors exactly as
// the uninterrupted source would have.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"streamad/internal/persist"
	"streamad/internal/score"
)

// ErrWALRotated reports a WAL tail request from below the last snapshot
// boundary: the records are gone, folded into the snapshot. The follower
// must refetch the snapshot and resume tailing from its Seq.
var ErrWALRotated = errors.New("ingest: WAL rotated past the requested sequence")

// ErrSeqConflict reports an install refused because the local stream has
// already assigned more sequence numbers than the incoming state has
// consumed — installing it would time-travel the stream backwards.
var ErrSeqConflict = errors.New("ingest: stream already live at a later sequence")

// ErrNoStore reports an operation that needs a configured state dir.
var ErrNoStore = errors.New("ingest: operation requires a state dir")

// handoffCRC is the CRC-32C table for state fingerprints (the same
// polynomial persist uses for file integrity).
var handoffCRC = crc32.MakeTable(crc32.Castagnoli)

// HandoffState is everything a target node needs to adopt a stream: the
// snapshot, the WAL records at or past its Seq, and the fingerprint of
// the source's live state that the target must reproduce.
type HandoffState struct {
	Snapshot    *persist.StreamSnapshot
	Tail        []persist.WALRecord
	Fingerprint uint32
}

// fingerprint canonically encodes a stream's live state — sequence
// boundary, serving counters, detector and thresholder blobs — and
// returns its CRC-32C. The caller must own the stream (procMu held, or
// not yet published).
func fingerprint(st *stream) (uint32, error) {
	ck, ok := st.det.(Checkpointer)
	if !ok {
		return 0, fmt.Errorf("ingest: detector %T does not support checkpointing", st.det)
	}
	detBlob, err := ck.Save()
	if err != nil {
		return 0, err
	}
	thBlob, err := marshalThresholder(st.th)
	if err != nil {
		return 0, err
	}
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:8], st.seqDone)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(st.ready.Load()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(st.alerts.Load()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(detBlob)))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(thBlob)))
	sum := crc32.Update(0, handoffCRC, hdr[:])
	sum = crc32.Update(sum, handoffCRC, detBlob)
	return crc32.Update(sum, handoffCRC, thBlob), nil
}

// Handoff quiesces a stream and detaches it for migration: admissions
// are closed, the queue drains, the state is captured, and the stream
// leaves the registry. After a successful Handoff the id is unknown
// locally (a racing observe may recreate it fresh; the seq-ordered
// conflict rule in install resolves that when the migration lands
// elsewhere or is reinstated). On capture failure the stream reopens
// untouched.
func (r *Registry) Handoff(id string) (*HandoffState, error) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	st, ok := sh.streams[id]
	sh.mu.Unlock()
	if !ok {
		return nil, ErrUnknownStream
	}
	// Quiesce: close admissions, then wait for the dispatcher to drain
	// the queue. The dispatcher broadcasts notFull both when it swaps a
	// batch out and when it exits, so this loop always wakes.
	st.qmu.Lock()
	if st.closed {
		st.qmu.Unlock()
		return nil, ErrUnknownStream // lost a race with eviction or another handoff
	}
	st.closed = true
	st.notFull.Broadcast()
	for st.busy || len(st.queue) > 0 {
		st.notFull.Wait()
	}
	st.qmu.Unlock()
	st.procMu.Lock()
	hs, err := func() (*HandoffState, error) {
		// A warm stream's fingerprint needs its window state resident.
		if _, err := r.ensureResident(st, true); err != nil {
			return nil, err
		}
		return r.capture(id, st)
	}()
	st.procMu.Unlock()
	if err != nil {
		st.qmu.Lock()
		st.closed = false
		st.qmu.Unlock()
		return nil, err
	}
	sh.mu.Lock()
	if sh.streams[id] == st {
		delete(sh.streams, id)
		r.nlive.Add(-1)
	}
	sh.mu.Unlock()
	return hs, nil
}

// capture assembles the HandoffState of a quiesced stream; the caller
// holds st.procMu. With a healthy on-disk snapshot + WAL the shipped
// state is exactly what a local restart would replay; otherwise (no
// store, or damaged WAL) a fresh checkpoint of the live state ships with
// an empty tail.
func (r *Registry) capture(id string, st *stream) (*HandoffState, error) {
	fp, err := fingerprint(st)
	if err != nil {
		return nil, err
	}
	hs := &HandoffState{Fingerprint: fp}
	if r.cfg.Store != nil {
		snap, err := r.cfg.Store.ReadSnapshot(id)
		if err == nil {
			recs, walErr := r.cfg.Store.ReadWAL(id)
			if walErr == nil {
				hs.Snapshot = snap
				for _, rec := range recs {
					if rec.Seq >= snap.Seq {
						hs.Tail = append(hs.Tail, rec)
					}
				}
				return hs, nil
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	snap, err := buildSnapshot(id, st, nil)
	if err != nil {
		return nil, err
	}
	hs.Snapshot = snap
	return hs, nil
}

// Adopt installs a stream shipped from another node: a fresh detector
// and thresholder are built, the snapshot is loaded, the WAL tail is
// replayed with restore semantics, and the result is published under the
// seq-ordered conflict rule. It returns the adopted state's fingerprint;
// the migration protocol acknowledges only when it matches the source's.
func (r *Registry) Adopt(id string, snap *persist.StreamSnapshot, tail []persist.WALRecord) (uint32, error) {
	det, err := r.cfg.NewDetector(id)
	if err != nil {
		return 0, err
	}
	st := r.newStream(id, det, r.cfg.NewThresholder(id))
	if err := loadSnapshotInto(st, snap); err != nil {
		return 0, err
	}
	replayRecords(st, tail)
	st.seq = st.seqDone
	fp, err := fingerprint(st)
	if err != nil {
		return 0, err
	}
	if err := r.install(st); err != nil {
		return 0, err
	}
	return fp, nil
}

// Install publishes an already-live detector/thresholder pair as a
// stream — the failover path, promoting a warm standby replica that has
// been tailing the failed owner's WAL. seq is the replica's consumed
// boundary; ready and alerts seed the serving counters.
func (r *Registry) Install(id string, det Stepper, th score.Thresholder, seq uint64, ready, alerts int64) error {
	st := r.newStream(id, det, th)
	st.seq = seq
	st.seqDone = seq
	st.steps.Store(int64(seq))
	st.ready.Store(ready)
	st.alerts.Store(alerts)
	st.thBits.Store(math.Float64bits(th.Threshold()))
	return r.install(st)
}

// install publishes an unshared stream under the conflict rule: an
// existing stream survives only if it has assigned more sequence numbers
// than the incoming state has consumed — otherwise it is closed and
// replaced (its queued items finish on the detached object). With a
// store the new stream is immediately checkpointed, so a restart
// recovers it even though its WAL starts mid-sequence.
func (r *Registry) install(st *stream) error {
	st.lastTouch.Store(time.Now().UnixNano())
	sh := r.shardFor(st.id)
	sh.mu.Lock()
	old, exists := sh.streams[st.id]
	if exists {
		old.qmu.Lock()
		oldSeq := old.seq
		if oldSeq > st.seq {
			old.qmu.Unlock()
			sh.mu.Unlock()
			return fmt.Errorf("%w: %q at seq %d, refusing to install state at seq %d",
				ErrSeqConflict, st.id, oldSeq, st.seq)
		}
		old.closed = true
		old.notFull.Broadcast()
		old.qmu.Unlock()
	} else if int(r.nlive.Load()) >= r.cfg.MaxStreams {
		sh.mu.Unlock()
		return fmt.Errorf("ingest: stream limit %d reached", r.cfg.MaxStreams)
	}
	sh.streams[st.id] = st
	if !exists {
		r.nlive.Add(1)
	}
	r.history.Add(1)
	sh.mu.Unlock()
	if exists {
		// The replaced stream's queued items finish on the detached
		// object; drain its in-flight fine-tunes so no trainer-pool task
		// outlives the replacement holding stale state.
		old.procMu.Lock()
		closeDetector(old.det)
		old.procMu.Unlock()
	}
	if r.cfg.Store == nil {
		return nil
	}
	if err := r.snapshotStream(st.id, st, 0); err != nil {
		// Without an anchoring checkpoint a restart would replay this
		// stream's mid-sequence WAL into a fresh detector and diverge
		// silently; fail the install instead.
		sh.mu.Lock()
		if sh.streams[st.id] == st {
			delete(sh.streams, st.id)
			if !exists {
				r.nlive.Add(-1)
			}
		}
		sh.mu.Unlock()
		return err
	}
	return nil
}

// WALTail returns the stream's WAL records with seq >= from, plus the
// stream's consumed boundary (seqDone). A request from below the last
// snapshot rotation returns ErrWALRotated with the snapshot boundary the
// follower must resync from.
func (r *Registry) WALTail(id string, from uint64) ([]persist.WALRecord, uint64, error) {
	if r.cfg.Store == nil {
		return nil, 0, ErrNoStore
	}
	sh := r.shardFor(id)
	sh.mu.Lock()
	st, ok := sh.streams[id]
	sh.mu.Unlock()
	if !ok {
		return nil, 0, ErrUnknownStream
	}
	st.procMu.Lock()
	defer st.procMu.Unlock()
	if from < st.snapSeq {
		return nil, st.snapSeq, ErrWALRotated
	}
	recs, err := r.cfg.Store.ReadWAL(id)
	if err != nil && !errors.Is(err, persist.ErrTornWAL) {
		return nil, 0, err
	}
	var out []persist.WALRecord
	for _, rec := range recs {
		if rec.Seq >= from {
			out = append(out, rec)
		}
	}
	return out, st.seqDone, nil
}

// Logf forwards to the registry's configured diagnostic logger, so
// embedders (the server's cluster endpoints) report through the same
// sink as the registry's own background loops.
func (r *Registry) Logf(format string, args ...any) { r.cfg.Logf(format, args...) }

// DropPersisted deletes a stream's on-disk snapshot and WAL — the last
// step of a migration out, once the target has acknowledged the
// fingerprint, so a restart does not resurrect the stream here.
func (r *Registry) DropPersisted(id string) error {
	if r.cfg.Store == nil {
		return nil
	}
	return r.cfg.Store.Remove(id)
}
