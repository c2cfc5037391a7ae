// The server side of cluster mode: the forwarding machinery behind
// observeRecords, the transparent proxy for stats, and the migration
// and WAL-tail endpoints the cluster loops call.
// Everything here is inert when the server was built without
// Config.Cluster.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

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

// forwardGroup accumulates one peer's share of the records
// observeRecords routes away: the NDJSON sub-batch to ship and, once
// done is closed, the peer's response lines in sub-batch order. Fields
// are written by observeRecords before launch and by the group's own
// goroutine until it closes done; never concurrently.
type forwardGroup struct {
	peer    string
	body    bytes.Buffer
	count   int
	done    chan struct{}
	results []BatchResult
	err     error
}

// add appends one record to the sub-batch and returns its line index.
// The line is encoded from the decoded record: float64 → JSON → float64
// round-trips exactly, so the owner scores the same bits.
func (g *forwardGroup) add(rec batchRecord) int {
	json.NewEncoder(&g.body).Encode(rec) // cannot fail: the vector came from JSON, so it is finite
	g.count++
	return g.count - 1
}

// forwardAll ships every group to its peer concurrently. Each group is
// joined by the first result read from it.
//
//streamad:lifecycle — one goroutine per peer group, joined through the group's done channel in forwardGroup.result.
func forwardAll(node *cluster.Node, groups map[string]*forwardGroup) {
	for _, g := range groups {
		g.done = make(chan struct{})
		go func() {
			defer close(g.done)
			g.run(node)
		}()
	}
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

// result waits for the group and maps one record's outcome out of it.
// A failed forward becomes a per-record 502 error line — the batch as a
// whole still succeeds (HTTP 200), mirroring how per-stream sheds are
// reported, so one dead peer never turns a mixed batch into a 5xx.
func (g *forwardGroup) result(i int, stream string) BatchResult {
	<-g.done
	if g.err != nil {
		return BatchResult{Stream: stream, Error: "forward to " + g.peer + " failed: " + g.err.Error(), Status: http.StatusBadGateway}
	}
	if i >= len(g.results) {
		return BatchResult{Stream: stream, Error: "forward to " + g.peer + ": short response (" +
			strconv.Itoa(len(g.results)) + " lines for " + strconv.Itoa(g.count) + " records)", Status: http.StatusBadGateway}
	}
	return g.results[i]
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
// by a peer as its live snapshot file. The file is integrity-checked
// (magic, version, CRC) and a replica built from it is promoted only if
// it re-encodes to the file's own CRC, the source's fingerprint — a
// mismatch 409s before anything local is touched, leaving the source to
// reinstate. Protocol failures are 4xx: a migration must never be able
// to fail a node's 5xx SLO.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request, id string) {
	if s.node == nil {
		http.Error(w, "not a cluster node", http.StatusNotImplemented)
		return
	}
	fail := func(msg string, status int) {
		s.node.NoteMigrationIn(false)
		http.Error(w, msg, status)
	}
	file, err := io.ReadAll(r.Body)
	if err != nil {
		fail("read migrate body: "+err.Error(), http.StatusBadRequest)
		return
	}
	rep, snap, err := s.reg.ReplicaFromFile(id, file)
	if errors.Is(err, ingest.ErrBadSnapshot) {
		fail(err.Error(), http.StatusBadRequest)
		return
	} else if err != nil {
		fail("adopt failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	want := persist.Fingerprint(snap)
	fp, err := rep.Fingerprint()
	if err != nil || fp != want {
		rep.Close()
		if err != nil {
			fail("adopt failed: "+err.Error(), http.StatusUnprocessableEntity)
		} else {
			// The replica does not reproduce the source's live state;
			// refuse it so the source (which still holds it) reinstates.
			fail(fmt.Sprintf("fingerprint mismatch: replica %08x, source %08x", fp, want), http.StatusConflict)
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
	w.Header().Set(cluster.FingerprintHeader, fmt.Sprintf("%08x", fp))
	w.WriteHeader(http.StatusOK)
}

// handleWALTail is GET /v1/streams/{id}/wal?from=N: the stream's WAL
// records with seq >= N in the WAL file format, for standby followers.
// A 410 means the tail was rotated away and the follower must resync
// from the snapshot endpoint.
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
		http.Error(w, fmt.Sprintf("%v: resync from the snapshot at seq %d", err, seqDone), http.StatusGone)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Streamad-Seq-Done", strconv.FormatUint(seqDone, 10))
	w.Write(persist.EncodeWAL(recs))
}
