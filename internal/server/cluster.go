// The server side of cluster mode: the forwarding machinery behind
// POST /v1/observe, transparent proxies for single observes and stats,
// and the migration and WAL-tail endpoints the cluster loops call.
// Everything here is inert when the server was built without
// Config.Cluster.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"streamad/internal/cluster"
	"streamad/internal/ingest"
	"streamad/internal/persist"
)

// StartCluster launches the cluster node's background loops (health
// prober, rebalancer, standby sync). Call it after RestoreStreams so the
// rebalancer sees the restored streams, and once the listener is up so
// peers' probes of this node succeed. No-op outside cluster mode.
func (s *Server) StartCluster() {
	if s.node != nil {
		s.node.Start(s.reg)
	}
}

// ClusterNode exposes the node (nil outside cluster mode) to embedders
// and tests.
func (s *Server) ClusterNode() *cluster.Node { return s.node }

// forwardGroup accumulates one peer's share of a batch: the NDJSON
// sub-batch to ship and, after run, the peer's response lines in
// sub-batch order. Fields are written by the spawning handler before
// launch and by the group's own goroutine until the WaitGroup joins;
// never concurrently.
type forwardGroup struct {
	peer    string
	body    bytes.Buffer
	count   int
	results []BatchResult
	err     error
}

// forwardAll ships every group to its peer concurrently and returns the
// WaitGroup that joins them. A nil node or empty group map returns a
// zero WaitGroup whose Wait is immediate.
//
//streamad:lifecycle — one goroutine per peer group, joined by the returned WaitGroup in handleBatchObserve.
func forwardAll(node *cluster.Node, groups map[string]*forwardGroup) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *forwardGroup) {
			defer wg.Done()
			g.run(node)
		}(g)
	}
	return &wg
}

// run forwards the sub-batch and decodes the peer's response lines.
func (g *forwardGroup) run(node *cluster.Node) {
	body, err := node.ForwardBatch(g.peer, g.count, g.body.Bytes())
	if err != nil {
		g.err = err
		return
	}
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var res BatchResult
		if jerr := json.Unmarshal(line, &res); jerr != nil {
			g.err = fmt.Errorf("bad response line from %s: %w", g.peer, jerr)
			return
		}
		g.results = append(g.results, res)
	}
}

// result maps one record's outcome out of the group. A failed forward
// becomes a per-record inline error — the batch as a whole still
// succeeds (HTTP 200), mirroring how per-stream sheds are reported, so
// one dead peer never turns a mixed batch into a 5xx.
func (g *forwardGroup) result(i int, stream string) BatchResult {
	if g.err != nil {
		return BatchResult{Stream: stream, Error: "forward to " + g.peer + " failed: " + g.err.Error()}
	}
	if i >= len(g.results) {
		return BatchResult{Stream: stream, Error: "forward to " + g.peer + ": short response (" +
			strconv.Itoa(len(g.results)) + " lines for " + strconv.Itoa(g.count) + " records)"}
	}
	return g.results[i]
}

// proxyObserve relays a single-record observe to the stream's owner and
// streams the owner's status and body back verbatim, so producers can
// post to any node. Only a transport failure becomes a local error.
func (s *Server) proxyObserve(w http.ResponseWriter, id, owner string, vector []float64) {
	body, err := json.Marshal(observeRequest{Vector: vector})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	path := "/v1/streams/" + url.PathEscape(id) + "/observe"
	status, out, err := s.node.ForwardRecord(owner, path, body, "application/json")
	if err != nil {
		http.Error(w, "owner "+owner+" unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	if status == http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	w.Write(out)
}

// proxyStats relays GET /v1/streams/{id} to the owner.
func (s *Server) proxyStats(w http.ResponseWriter, id, owner string) {
	req, err := http.NewRequest(http.MethodGet, owner+"/v1/streams/"+url.PathEscape(id), nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header.Set(cluster.ForwardedHeader, s.node.Self())
	resp, err := s.node.Client().Do(req)
	if err != nil {
		http.Error(w, "owner "+owner+" unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleMigrate is POST /v1/streams/{id}/migrate: adopt a stream shipped
// by a peer. The snapshot file is integrity-checked (magic, version,
// CRC), a replica of it replays the WAL tail, and only a replica whose
// fingerprint equals the source's is promoted — a mismatch 409s before
// anything local is touched, leaving the source to reinstate. Protocol
// failures are 4xx: a migration must never be able to fail a node's 5xx
// SLO.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request, id string) {
	if s.node == nil {
		http.Error(w, "not a cluster node", http.StatusNotImplemented)
		return
	}
	fail := func(msg string, status int) {
		s.node.NoteMigrationIn(false)
		http.Error(w, msg, status)
	}
	var req cluster.MigrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad migrate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	snap, err := persist.DecodeSnapshotFile(req.Snapshot)
	if err != nil {
		fail("bad snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	if snap.ID != id {
		fail(fmt.Sprintf("snapshot is for stream %q, not %q", snap.ID, id), http.StatusBadRequest)
		return
	}
	tail := make([]persist.WALRecord, 0, len(req.WAL))
	for _, rec := range req.WAL {
		for _, v := range rec.Vector {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fail("non-finite value in WAL tail", http.StatusBadRequest)
				return
			}
		}
		tail = append(tail, persist.WALRecord{Seq: rec.Seq, Vector: rec.Vector})
	}
	rep, err := s.reg.NewReplica(snap)
	if err != nil {
		fail("adopt failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	rep.Replay(tail)
	fp, err := rep.Fingerprint()
	if err != nil || fp != req.Fingerprint {
		rep.Close()
		if err != nil {
			fail("adopt failed: "+err.Error(), http.StatusUnprocessableEntity)
		} else {
			// The replayed state does not reproduce the source's live
			// state; refuse it so the source (which still holds it)
			// reinstates.
			fail(fmt.Sprintf("fingerprint mismatch: replayed %08x, source %08x", fp, req.Fingerprint),
				http.StatusConflict)
		}
		return
	}
	if err := s.reg.Promote(rep); errors.Is(err, ingest.ErrSeqConflict) {
		fail(err.Error(), http.StatusConflict)
		return
	} else if err != nil {
		fail("adopt failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.node.NoteMigrationIn(true)
	writeJSON(w, http.StatusOK, cluster.MigrateResponse{Node: s.node.Self(), Fingerprint: fp})
}

// handleWALTail is GET /v1/streams/{id}/wal?from=N: the stream's WAL
// records with seq >= N as NDJSON, for standby followers. 410 with the
// snapshot boundary means the tail was rotated away and the follower
// must resync from the snapshot endpoint.
func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request, id string) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	recs, seqDone, err := s.reg.WALTail(id, from)
	switch {
	case errors.Is(err, ingest.ErrNoStore):
		http.Error(w, "this node has no state dir; WAL tailing unavailable", http.StatusNotImplemented)
		return
	case errors.Is(err, ingest.ErrUnknownStream):
		http.Error(w, "unknown stream", http.StatusNotFound)
		return
	case errors.Is(err, ingest.ErrWALRotated):
		writeJSON(w, http.StatusGone, cluster.WALGone{Error: err.Error(), SnapshotSeq: seqDone})
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Streamad-Seq-Done", strconv.FormatUint(seqDone, 10))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		enc.Encode(cluster.WALEntry{Seq: rec.Seq, Vector: rec.Vector})
	}
}
