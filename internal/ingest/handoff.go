// Stream handoff: the registry side of cluster migration and failover.
// A stream leaves a node as its live snapshot (Handoff) and is tailed
// remotely by sequence number (WALTail). Every way into a node is a
// Replica — an unpublished stream built with the registry's own
// factories from a snapshot and advanced through WAL records by the
// dispatcher's own step — that Promote publishes: Adopt (a source
// reinstating a stream it failed to hand off), the /migrate endpoint,
// and a cluster standby tailing its owner's WAL.
//
// A migration is checked by fingerprint: the CRC-32C of the snapshot
// body (persist.Fingerprint), which the snapshot file's header carries.
// Because Save/Load round trips are bit-identical (the restore
// invariant), a target whose replica re-encodes to the shipped file's
// CRC will score future vectors exactly as the uninterrupted source
// would have.
package ingest

import (
	"errors"
	"fmt"
	"time"

	"streamad/internal/persist"
)

// ErrWALRotated reports a WAL tail request from below the last snapshot
// boundary: the records are gone, folded into the snapshot. The follower
// must refetch the snapshot and resume tailing from its Seq.
var ErrWALRotated = errors.New("ingest: WAL rotated past the requested sequence")

// ErrSeqConflict reports a promotion refused because the local stream
// has already assigned more sequence numbers than the incoming state has
// consumed — publishing it would time-travel the stream backwards.
var ErrSeqConflict = errors.New("ingest: stream already live at a later sequence")

// ErrNoStore reports an operation that needs a configured state dir.
var ErrNoStore = errors.New("ingest: operation requires a state dir")

// ErrBadSnapshot reports a peer's snapshot file that does not decode or
// holds another stream's state.
var ErrBadSnapshot = errors.New("ingest: bad snapshot file")

// Replica is a stream this registry has built but not published. Its
// owner advances it with Replay and then either publishes it (Promote)
// or discards it (Close); it is not safe for concurrent use.
type Replica struct{ st *stream }

// NewReplica builds an unpublished stream in the state snap holds, with
// the registry's detector and thresholder factories.
func (r *Registry) NewReplica(snap *persist.StreamSnapshot) (*Replica, error) {
	st, err := r.newStream(snap.ID)
	if err != nil {
		return nil, err
	}
	if err := st.load(snap); err != nil {
		closeDetector(st.det)
		return nil, err
	}
	return &Replica{st: st}, nil
}

// ReplicaFromFile builds a replica of stream id from a peer's snapshot
// file: the file is decoded (magic, version and CRC checked exactly as
// on a restart) and must hold id's state. It also returns the decoded
// snapshot, whose persist.Fingerprint is the file's CRC. A file that
// does not decode or names another stream fails with ErrBadSnapshot.
func (r *Registry) ReplicaFromFile(id string, file []byte) (*Replica, *persist.StreamSnapshot, error) {
	snap, err := persist.DecodeSnapshotFile(file)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if snap.ID != id {
		return nil, nil, fmt.Errorf("%w: it is for stream %q, not %q", ErrBadSnapshot, snap.ID, id)
	}
	rep, err := r.NewReplica(snap)
	return rep, snap, err
}

// ID is the replica's stream id.
func (p *Replica) ID() string { return p.st.id }

// Seq is the replica's boundary: every record below it is folded in.
func (p *Replica) Seq() uint64 { return p.st.seqDone }

// Replay advances the replica through the WAL records at or past its
// boundary, exactly as a restart replays them, and returns how many it
// stepped.
func (p *Replica) Replay(recs []persist.WALRecord) int {
	n, _ := p.st.replay(recs)
	return n
}

// Fingerprint is the CRC-32C of the replica's snapshot body.
func (p *Replica) Fingerprint() (uint32, error) {
	snap, err := buildSnapshot(p.st.id, p.st, nil)
	if err != nil {
		return 0, err
	}
	return persist.Fingerprint(snap), nil
}

// Close settles a replica that will not be promoted.
func (p *Replica) Close() { closeDetector(p.st.det) }

// Handoff quiesces a stream and detaches it for migration: admissions
// are closed, the queue drains, the live state is captured, and the
// stream leaves the registry. The returned snapshot is that live state;
// its persist.Fingerprint is the CRC its file header carries. After a
// successful Handoff the id is unknown locally (a racing observe may
// recreate it fresh; the seq-ordered conflict rule in Promote resolves
// that when the migration lands elsewhere or is reinstated). On capture
// failure the stream reopens untouched.
func (r *Registry) Handoff(id string) (*persist.StreamSnapshot, error) {
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
	snap, err := func() (*persist.StreamSnapshot, error) {
		// A warm stream's snapshot needs its window state resident.
		if _, err := r.ensureResident(st, true); err != nil {
			return nil, err
		}
		return buildSnapshot(id, st, nil)
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
	return snap, nil
}

// Adopt installs a stream's state: a replica of the snapshot replays the
// WAL tail, if any, and is promoted. It returns the adopted state's
// fingerprint. A source reinstates a stream it failed to hand off this
// way, with the snapshot Handoff returned and no tail.
func (r *Registry) Adopt(id string, snap *persist.StreamSnapshot, tail []persist.WALRecord) (uint32, error) {
	if snap.ID != id {
		return 0, fmt.Errorf("ingest: snapshot is for stream %q, not %q", snap.ID, id)
	}
	p, err := r.NewReplica(snap)
	if err != nil {
		return 0, err
	}
	p.Replay(tail)
	fp, err := p.Fingerprint()
	if err != nil {
		p.Close()
		return 0, err
	}
	if err := r.Promote(p); err != nil {
		return 0, err
	}
	return fp, nil
}

// Promote publishes a replica at its boundary under the seq-ordered
// conflict rule: an existing stream survives only if it has assigned
// more sequence numbers than the replica has consumed — otherwise it is
// closed and replaced (its queued items finish on the detached object).
// With a store the new stream is immediately checkpointed, so a restart
// recovers it even though its WAL starts mid-sequence. The replica is
// spent either way: a refused one is closed.
func (r *Registry) Promote(p *Replica) error {
	st := p.st
	st.seq = st.seqDone
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
			p.Close()
			return fmt.Errorf("%w: %q at seq %d, refusing to install state at seq %d",
				ErrSeqConflict, st.id, oldSeq, st.seq)
		}
		old.closed = true
		old.notFull.Broadcast()
		old.qmu.Unlock()
	} else if err := r.checkRoom(); err != nil {
		sh.mu.Unlock()
		p.Close()
		return err
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
		// silently; fail the promotion instead.
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

// DropPersisted deletes a stream's on-disk snapshot and WAL — the last
// step of a migration out, once the target has acknowledged the
// fingerprint, so a restart does not resurrect the stream here.
func (r *Registry) DropPersisted(id string) error {
	if r.cfg.Store == nil {
		return nil
	}
	return r.cfg.Store.Remove(id)
}
