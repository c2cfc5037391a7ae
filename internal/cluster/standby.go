// Warm-standby replication. For every stream whose ring successor is
// this node, the standby loop keeps an ingest.Replica: it bootstraps
// from the owner's snapshot endpoint, then tails the owner's WAL by
// sequence number, replaying each vector exactly as a restart would.
// When the owner fails its health probes the ring makes this node the
// owner, and the replica is promoted into the registry — warm, at the
// last replicated sequence — instead of the stream restarting cold.
package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"streamad/internal/ingest"
	"streamad/internal/persist"
)

// standbyLoop drives replica sync, promotion and garbage collection.
func (n *Node) standbyLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StandbyInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.standbySync()
		}
	}
}

// standbySync runs one pass: settle existing replicas (promote, drop, or
// tail), then discover streams this node should start backing up.
func (n *Node) standbySync() {
	n.repMu.Lock()
	reps := make([]*ingest.Replica, 0, len(n.replicas))
	for _, rep := range n.replicas {
		reps = append(reps, rep)
	}
	n.repMu.Unlock()

	for _, rep := range reps {
		id := rep.ID()
		owner := n.Owner(id)
		switch {
		case owner == n.self:
			n.promote(rep)
		case n.Backup(id) != n.self:
			// The ring moved the backup role elsewhere.
			n.dropReplica(id)
		default:
			// Tail whoever currently owns the stream — after a failover
			// or migration that may be a different node than the replica
			// started against; a 410 resync realigns the state.
			if err := n.tailReplica(rep, owner); err != nil {
				n.cfg.Logf("streamad: cluster standby %q: %v", id, err)
			}
		}
	}
	n.discoverStandbys()
}

// promote publishes a replica into the local registry. Promote's
// seq-ordered conflict rule arbitrates against a racing fresh stream
// (created by an observe that arrived before the replica landed): the
// replica wins only if it is further along.
func (n *Node) promote(rep *ingest.Replica) {
	n.swapReplica(rep.ID(), nil)
	if err := n.reg.Promote(rep); err != nil {
		n.cfg.Logf("streamad: cluster standby %q not promoted: %v", rep.ID(), err)
		return
	}
	n.promotions.Add(1)
	n.cfg.Logf("streamad: cluster promoted standby %q at seq %d", rep.ID(), rep.Seq())
}

// swapReplica installs (or, with nil, removes) the replica for id and
// returns the one it displaced.
func (n *Node) swapReplica(id string, rep *ingest.Replica) *ingest.Replica {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	old := n.replicas[id]
	if rep != nil {
		n.replicas[id] = rep
	} else {
		delete(n.replicas, id)
	}
	return old
}

// dropReplica discards the replica for id, if any.
func (n *Node) dropReplica(id string) {
	if old := n.swapReplica(id, nil); old != nil {
		old.Close()
	}
}

// tailReplica pulls and replays the owner's WAL records from the
// replica's boundary. A 410 means the owner rotated its WAL past us —
// resync from its current snapshot; a 404 means the owner no longer
// serves the stream (evicted or migrating) — drop and rediscover later.
func (n *Node) tailReplica(rep *ingest.Replica, owner string) error {
	id := rep.ID()
	target := owner + "/v1/streams/" + url.PathEscape(id) + "/wal?from=" + strconv.FormatUint(rep.Seq(), 10)
	resp, err := n.client.Get(target)
	if err != nil {
		return nil // owner unreachable; the prober and ring decide what happens next
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		fresh, err := n.buildReplica(id, owner)
		if err != nil {
			return fmt.Errorf("resync: %w", err)
		}
		if old := n.swapReplica(id, fresh); old != nil {
			old.Close()
		}
		return nil
	case http.StatusNotFound:
		n.dropReplica(id)
		return nil
	case http.StatusNotImplemented:
		n.dropReplica(id)
		return fmt.Errorf("owner %s has no WAL (no state dir); standby disabled for %q", owner, id)
	default:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("owner %s WAL tail returned %s", owner, resp.Status)
	}
	var recs []persist.WALRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec WALEntry
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("decode WAL line: %w", err)
		}
		recs = append(recs, persist.WALRecord{Seq: rec.Seq, Vector: rec.Vector})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	n.standbyReplayed.Add(uint64(rep.Replay(recs)))
	return nil
}

// discoverStandbys asks each live peer for its stream list and starts a
// replica for every stream this node is the ring backup of.
func (n *Node) discoverStandbys() {
	ring := n.ring.Load()
	for _, peer := range n.order {
		if peer == n.self || !n.peers[peer].alive.Load() {
			continue
		}
		ids, err := n.peerStreams(peer)
		if err != nil {
			continue // unreachable peers are the prober's problem
		}
		for _, id := range ids {
			if ring.Owner(id) != peer || n.Backup(id) != n.self {
				continue
			}
			if _, live := n.reg.StreamStats(id); live {
				continue // locally live (probably migrating out); not standby material
			}
			n.repMu.Lock()
			_, have := n.replicas[id]
			n.repMu.Unlock()
			if have {
				continue
			}
			rep, err := n.buildReplica(id, peer)
			if err != nil {
				n.cfg.Logf("streamad: cluster standby bootstrap %q from %s: %v", id, peer, err)
				continue
			}
			n.swapReplica(id, rep)
		}
	}
}

// peerStreams fetches a peer's stream ids.
func (n *Node) peerStreams(peer string) ([]string, error) {
	resp, err := n.client.Get(peer + "/v1/streams")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s stream list returned %s", peer, resp.Status)
	}
	var rows []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(rows))
	for _, row := range rows {
		ids = append(ids, row.ID)
	}
	return ids, nil
}

// buildReplica bootstraps a replica from the owner's snapshot endpoint
// (the same versioned CRC file format the store persists).
func (n *Node) buildReplica(id, owner string) (*ingest.Replica, error) {
	resp, err := n.client.Get(owner + "/v1/streams/" + url.PathEscape(id) + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s snapshot returned %s", owner, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap, err := persist.DecodeSnapshotFile(raw)
	if err != nil {
		return nil, err
	}
	if snap.ID != id {
		return nil, fmt.Errorf("cluster: %s served the snapshot of %q for %q", owner, snap.ID, id)
	}
	return n.reg.NewReplica(snap)
}
