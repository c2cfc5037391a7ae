// Durability for the serving layer. The mechanics — WAL-backed
// observes, background snapshots, crash recovery, TTL eviction — live in
// the sharded ingestion registry (internal/ingest); this file keeps the
// server's stable surface (RestoreStreams, SnapshotAll, Close and the
// snapshot-download endpoint) as thin delegations. Everything here is
// inert unless Config.Store is set.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"streamad/internal/ingest"
	"streamad/internal/persist"
)

// RestoreStreams rebuilds every stream persisted in the configured store.
// It must be called before the server starts handling traffic. The
// returned warnings describe tolerated damage (a torn WAL tail from a
// mid-write crash); hard corruption — bad magic, version or CRC — aborts
// with an error so damaged state is never half-loaded silently.
func (s *Server) RestoreStreams() (restored int, warnings []string, err error) {
	return s.reg.RestoreStreams()
}

// SnapshotAll checkpoints every stream with WAL entries outstanding and
// returns the first error encountered (all streams are still attempted).
func (s *Server) SnapshotAll() error { return s.reg.SnapshotAll() }

// handleSnapshot serves GET /v1/streams/{id}/snapshot: a fresh checkpoint
// of the stream in the persist file format (magic, version, CRC), suitable
// for off-box backup. When a store is configured the checkpoint is also
// persisted, so the endpoint doubles as "force a snapshot now".
func (s *Server) handleSnapshot(w http.ResponseWriter, id string) {
	snap, err := s.reg.Snapshot(id)
	if errors.Is(err, ingest.ErrUnknownStream) {
		http.Error(w, "unknown stream", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	file, err := persist.EncodeSnapshotFile(snap)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".snap"))
	w.Write(file)
}

// Close stops the cluster node's loops (prober, rebalancer, standby
// sync) and then the registry's (snapshotter, evictor), taking a final
// checkpoint of every dirty stream. It does not close the store — the
// caller that opened it owns that. Safe to call more than once.
func (s *Server) Close() error {
	if s.node != nil {
		s.node.Close()
	}
	return s.reg.Close()
}
