// Package server exposes the streaming anomaly detectors over HTTP with a
// minimal JSON API, so non-Go producers can push telemetry and consume
// anomaly scores. The HTTP layer is deliberately thin: all stream state
// lives in the sharded ingestion registry (internal/ingest), which gives
// every stream id its own detector, thresholder, bounded queue and
// sequence numbering.
//
//	POST /v1/observe                 NDJSON {"stream": .., "vector": ..}  → per-record results
//	POST /v1/streams/{id}/observe    {"vector": [..]}                    → score + alert
//	GET  /v1/streams                                                     → stream list
//	GET  /v1/streams/{id}                                                → stream stats (incl. ensemble members)
//	GET  /v1/streams/{id}/snapshot                                       → checkpoint file
//	GET  /metrics                                                        → Prometheus text exposition
//	GET  /healthz                                                        → 200 ok
//
// Observe is synchronous (the producer waits for its vector's score) but
// scoring runs behind bounded per-stream queues with a micro-batching
// dispatcher, so many streams score concurrently and a burst on one
// stream coalesces into single locked detector passes. When a queue
// fills, the configured overload policy decides between backpressure
// (block), load-shedding (429 + Retry-After) and drop-oldest.
package server

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"streamad/internal/cluster"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/pool"
	"streamad/internal/score"
	"streamad/internal/stats"
)

// Stepper is the per-stream detector contract (re-exported from the
// ingestion layer, where it now lives).
type Stepper = ingest.Stepper

// defaultMetricsStreamCap is how many streams get per-stream series on
// /metrics when Config.MetricsStreamCap is zero. 500 streams × ~30
// series is well inside what scrapers ingest comfortably; beyond that
// the omitted gauge reports the cut.
const defaultMetricsStreamCap = 500

// Config assembles a Server.
type Config struct {
	// NewDetector builds a detector for a new stream id (required).
	NewDetector func(stream string) (Stepper, error)
	// NewThresholder builds the per-stream alert policy (default: a
	// streaming 0.99-quantile).
	NewThresholder func(stream string) score.Thresholder
	// MaxStreams bounds the number of live streams (default 1024).
	MaxStreams int
	// Shards is the number of registry shards (default 8).
	Shards int
	// QueueDepth bounds each stream's pending-vector queue (default 64).
	QueueDepth int
	// Overload picks the full-queue policy: ingest.Block (backpressure,
	// default), ingest.Shed (429 + Retry-After) or ingest.DropOldest.
	Overload ingest.Policy
	// StreamTTL, when positive, checkpoints and unloads streams with no
	// observes for the TTL (see ingest.Config.StreamTTL).
	StreamTTL time.Duration
	// WarmAfter, when positive with a Store, demotes streams idle past
	// this duration to the warm tier: the model stays resident while
	// window state is paged to the snapshot store until the next observe
	// (see ingest.Config.WarmAfter). Must be below StreamTTL when both
	// are set.
	WarmAfter time.Duration
	// ScorePool, when set, is the shared bounded worker pool dispatcher
	// hops run on; the registry otherwise creates its own (GOMAXPROCS
	// workers). The caller keeps ownership: close it after the server.
	ScorePool *pool.Pool
	// TrainerPool, when set, is surfaced in /metrics as the trainer-pool
	// families. The pool itself is wired into
	// detectors by the NewDetector factory (see streamad.Config); the
	// server only reports it. The caller keeps ownership.
	TrainerPool *pool.Pool
	// Store, when set, makes the server durable: every observed vector is
	// appended to the stream's WAL before it is scored, snapshots are taken
	// in the background, and RestoreStreams rebuilds state on startup.
	Store *persist.Store
	// SnapshotInterval is how often the background snapshotter checkpoints
	// streams with WAL entries outstanding (0 disables timed snapshots).
	SnapshotInterval time.Duration
	// SnapshotEvery checkpoints a stream once this many vectors accumulate
	// in its WAL, independent of the timer (0 disables the entry trigger).
	SnapshotEvery int
	// MetricsStreamCap bounds how many streams get per-stream series on
	// /metrics (default 500, negative = unlimited). Streams are ranked by
	// id, so the rendered subset is stable across scrapes; the
	// streams-omitted gauge counts the remainder. At the
	// fleet sizes the registry targets, unbounded per-stream series are a
	// cardinality bomb for any scraper.
	MetricsStreamCap int
	// Logf receives persistence diagnostics (default: discard).
	Logf func(format string, args ...interface{})
	// Cluster, when set with at least two peers, makes this server one
	// node of a logical cluster: observes are forwarded to their ring
	// owners, streams migrate on membership changes, and ring successors
	// keep warm standbys (see internal/cluster), built with the
	// registry's own factories. Logf defaults to the server's own.
	Cluster *cluster.Config
}

// Server is an http.Handler serving the scoring API.
type Server struct {
	reg     *ingest.Registry
	mux     *http.ServeMux
	obsLat  *stats.Histogram // observe request latency, in ns
	node    *cluster.Node
	trainer *pool.Pool // reported in /metrics; owned by the caller
	metrics *metricSet
	// batchFree holds up to four finished batches' scratch.
	batchFree chan *batchScratch
}

// New validates the configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.NewDetector == nil {
		return nil, fmt.Errorf("server: NewDetector is required")
	}
	reg, err := ingest.New(ingest.Config{
		NewDetector:      cfg.NewDetector,
		NewThresholder:   cfg.NewThresholder,
		Shards:           cfg.Shards,
		QueueDepth:       cfg.QueueDepth,
		Overload:         cfg.Overload,
		MaxStreams:       cfg.MaxStreams,
		StreamTTL:        cfg.StreamTTL,
		WarmAfter:        cfg.WarmAfter,
		ScorePool:        cfg.ScorePool,
		Store:            cfg.Store,
		SnapshotInterval: cfg.SnapshotInterval,
		SnapshotEvery:    cfg.SnapshotEvery,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	streamCap := cfg.MetricsStreamCap
	switch {
	case streamCap == 0:
		streamCap = defaultMetricsStreamCap
	case streamCap < 0:
		streamCap = 0 // unlimited
	}
	s := &Server{
		reg: reg, mux: http.NewServeMux(), trainer: cfg.TrainerPool,
		obsLat:    stats.NewHistogram(ObserveLatencyBounds, 1e9),
		metrics:   newMetricSet(metricFamilies(), streamCap),
		batchFree: make(chan *batchScratch, 4),
	}
	if cfg.Cluster != nil && len(cfg.Cluster.Peers) > 0 {
		ccfg := *cfg.Cluster
		if ccfg.Logf == nil {
			ccfg.Logf = cfg.Logf
		}
		s.node, err = cluster.New(ccfg)
		if err != nil {
			reg.Close()
			return nil, err
		}
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/observe", s.handleBatchObserve)
	s.mux.HandleFunc("/v1/streams", s.handleList)
	s.mux.HandleFunc("/v1/streams/", s.handleStream)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// streamListEntry is one row of GET /v1/streams.
type streamListEntry struct {
	ID     string `json:"id"`
	Steps  int    `json:"steps"`
	Alerts int    `json:"alerts"`
}

// handleList snapshots the stream list under the registry's per-stream
// locks and encodes entirely outside any lock.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	infos := s.reg.Streams()
	out := make([]streamListEntry, 0, len(infos))
	for _, in := range infos {
		out = append(out, streamListEntry{ID: in.ID, Steps: in.Steps, Alerts: in.Alerts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// observeRequest is the POST body of /v1/streams/{id}/observe.
//
// The vector was decoded from JSON, which cannot carry NaN/Inf.
type observeRequest struct {
	Vector []float64 `json:"vector"`
}

// ObserveResponse is the scoring result returned to the producer. Step
// is the vector's per-stream sequence number (monotonic per stream).
type ObserveResponse struct {
	Ready         bool    `json:"ready"`
	Score         float64 `json:"score"`
	Nonconformity float64 `json:"nonconformity"`
	Alert         bool    `json:"alert"`
	Threshold     float64 `json:"threshold,omitempty"`
	FineTuned     bool    `json:"fine_tuned,omitempty"`
	// Source attributes the score to the tier or member that produced it
	// for composite detectors ("tier0:zscore" for cascade-screened
	// vectors, "heavy:…" for admitted ones); empty otherwise.
	Source string `json:"source,omitempty"`
	Step   int    `json:"step"`
	// Dropped marks a vector the drop-oldest overload policy discarded
	// before scoring; its sequence number was consumed but no score exists.
	Dropped bool `json:"dropped,omitempty"`
	// Node is the cluster node that scored the vector (empty outside
	// cluster mode); a forwarded observe carries the owner's URL here.
	Node string `json:"node,omitempty"`
}

// StatsResponse is GET /v1/streams/{id}. Members holds one row per member
// of every ensemble in the stream's detector tree (a nested ensemble's
// rows carry its "node" path) and Cascade the screening cascade's per-tier
// traffic split and admission-gate state; both come from one
// core.TreeStats walk, which has already zeroed non-finite floats.
// Threshold is omitted while the alert policy still reports a non-finite
// boundary (see core.FiniteOrZero).
type StatsResponse struct {
	ID string `json:"id"`
	// Node is the cluster node that answered and Owner the ring owner of
	// the stream; both are empty outside cluster mode. They differ
	// briefly while a stream is migrating toward its owner.
	Node      string             `json:"node,omitempty"`
	Owner     string             `json:"owner,omitempty"`
	Steps     int                `json:"steps"`
	Ready     int                `json:"ready_steps"`
	Alerts    int                `json:"alerts"`
	Tier      string             `json:"tier,omitempty"`
	Queued    int                `json:"queued,omitempty"`
	Threshold float64            `json:"threshold,omitempty"`
	Members   []core.MemberStat  `json:"members,omitempty"`
	Cascade   *core.CascadeStats `json:"cascade,omitempty"`
	FineTune  *FineTuneStatus    `json:"fine_tune,omitempty"`
}

// FineTuneStatus is the serve/train split section of StatsResponse:
// fine-tuning mode, pending state, the due steps that had to wait for
// their fine-tune, and duration accounting.
type FineTuneStatus struct {
	Mode         string  `json:"mode"` // "sync" or "async"
	InFlight     bool    `json:"in_flight,omitempty"`
	Launched     int64   `json:"launched,omitempty"`
	Skipped      int64   `json:"skipped,omitempty"`
	AdoptWaits   int64   `json:"adopt_waits,omitempty"`
	Completed    int64   `json:"completed"`
	LastSeconds  float64 `json:"last_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/streams/")
	parts := strings.Split(rest, "/")
	id := parts[0]
	if id == "" {
		http.Error(w, "missing stream id", http.StatusBadRequest)
		return
	}
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		s.handleStats(w, r, id)
	case len(parts) == 2 && parts[1] == "observe" && r.Method == http.MethodPost:
		s.handleObserve(w, r, id)
	case len(parts) == 2 && parts[1] == "snapshot" && r.Method == http.MethodGet:
		s.handleSnapshot(w, id)
	case len(parts) == 2 && parts[1] == "migrate" && r.Method == http.MethodPost:
		s.handleMigrate(w, r, id)
	case len(parts) == 2 && parts[1] == "wal" && r.Method == http.MethodGet:
		s.handleWALTail(w, r, id)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// retryAfterSeconds renders the Retry-After header value (whole seconds,
// rounded up, at least 1).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleObserve is POST /v1/streams/{id}/observe: a batch of one. It
// decodes {"vector"}, passes the record through observeRecords and
// renders its BatchResult as the single endpoint's status and body.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request, id string) {
	start := time.Now()
	defer func() { s.obsLat.Observe(int64(time.Since(start))) }()
	var req observeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Vector) == 0 {
		http.Error(w, "empty vector", http.StatusBadRequest)
		return
	}
	ps := [1]pending{{rec: batchRecord{Stream: id, Vector: req.Vector}, ok: true}}
	s.observeRecords(ps[:], r.Header.Get(cluster.ForwardedHeader) != "", nil)
	switch out := &ps[0].out; {
	case out.Shed:
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.reg.RetryAfter())))
		http.Error(w, "stream queue full; retry later", http.StatusTooManyRequests)
	case out.Error != "":
		// An error line from a peer that names no status is a bad gateway.
		http.Error(w, out.Error, cmp.Or(out.Status, http.StatusBadGateway))
	default:
		writeJSON(w, http.StatusOK, ObserveResponse{
			Ready: out.Ready, Score: out.Score, Nonconformity: out.Nonconformity,
			Alert: out.Alert, Threshold: out.Threshold, FineTuned: out.FineTuned,
			Source: out.Source, Step: int(out.Seq), Dropped: out.Dropped, Node: out.Node,
		})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, id string) {
	info, ok := s.reg.StreamStats(id)
	if !ok {
		// In cluster mode the stream may live on its ring owner; answer
		// from there so any node can serve any stream's stats. The
		// forwarded guard keeps two disagreeing nodes from ping-ponging.
		if s.node != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
			if owner := s.node.Owner(id); owner != s.node.Self() {
				s.proxyStats(w, id, owner)
				return
			}
		}
		http.Error(w, "unknown stream", http.StatusNotFound)
		return
	}
	resp := StatsResponse{
		ID: id, Steps: info.Steps, Ready: info.Ready, Alerts: info.Alerts,
		Tier:      info.Tier,
		Queued:    info.QueueLen,
		Threshold: core.FiniteOrZero(info.Threshold),
		Members:   info.Members,
		Cascade:   info.Cascade,
	}
	if s.node != nil {
		resp.Node = s.node.Self()
		resp.Owner = s.node.Owner(id)
	}
	if ft := info.FineTune; ft != nil {
		mode := "sync"
		if ft.Async {
			mode = "async"
		}
		resp.FineTune = &FineTuneStatus{
			Mode:         mode,
			InFlight:     ft.InFlight,
			Launched:     ft.Launched,
			Skipped:      ft.Skipped,
			AdoptWaits:   ft.AdoptWaits,
			Completed:    ft.Completed,
			LastSeconds:  ft.LastSeconds,
			TotalSeconds: ft.TotalSeconds,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchRecord is one NDJSON line of POST /v1/observe.
type batchRecord struct {
	Stream string    `json:"stream"`
	Vector []float64 `json:"vector"`
}

// BatchResult is one NDJSON line of the batch response, emitted in
// request order. Seq is the vector's per-stream sequence number;
// exactly one of the score fields, Shed, Dropped or Error describes the
// outcome.
//
// toBatchResult passes every float through core.FiniteOrZero.
type BatchResult struct {
	Stream        string  `json:"stream"`
	Seq           uint64  `json:"seq"`
	Ready         bool    `json:"ready"`
	Score         float64 `json:"score"`
	Nonconformity float64 `json:"nonconformity"`
	Alert         bool    `json:"alert,omitempty"`
	Threshold     float64 `json:"threshold,omitempty"`
	FineTuned     bool    `json:"fine_tuned,omitempty"`
	// Source attributes the score to the producing tier or member for
	// composite detectors (see ObserveResponse.Source).
	Source string `json:"source,omitempty"`
	// Shed marks a vector rejected by the shed overload policy; retry
	// after RetryAfterMs.
	Shed         bool  `json:"shed,omitempty"`
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Dropped marks a vector the drop-oldest policy discarded unscored.
	Dropped bool   `json:"dropped,omitempty"`
	Error   string `json:"error,omitempty"`
	// Status is set on error lines only: the HTTP status the single
	// endpoint answers the error with (400 bad record or shape, 500 WAL
	// failure, 502 failed forward, 503 stream not admitted). A non-owner
	// relays an owner's error with it.
	Status int `json:"status,omitempty"`
	// Node is the cluster node that scored the record (empty outside
	// cluster mode); forwarded records carry the owner's URL here.
	Node string `json:"node,omitempty"`
}

const (
	// MaxBatchRecords bounds one POST /v1/observe body; larger batches
	// are rejected whole with 413 and a BatchCapError naming the cap.
	MaxBatchRecords = 16384
	// maxRecordBytes bounds one NDJSON line.
	maxRecordBytes = 1 << 20
)

// BatchCapError is the structured JSON body of a 413 response to a
// POST /v1/observe batch exceeding MaxBatchRecords. Nothing from the
// rejected batch is enqueued: clients can split and resend the whole
// batch without double-scoring any record.
type BatchCapError struct {
	Error           string `json:"error"`
	MaxBatchRecords int    `json:"max_batch_records"`
}

// handleBatchObserve is POST /v1/observe: an NDJSON batch of
// {"stream","vector"} records spanning any number of streams. The body
// is parsed and counted before anything touches a queue, so a batch
// over MaxBatchRecords is rejected whole (413 + BatchCapError) with no
// partial side effects. The records then go through observeRecords
// together; the response is NDJSON, one result per record, in request
// order. Records shed by the overload policy are reported inline (the
// whole batch is never failed for one hot stream).
func (s *Server) handleBatchObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	defer func() { s.obsLat.Observe(int64(time.Since(start))) }()
	b := s.borrowBatch()
	pendings := b.pendings
	defer func() {
		b.pendings = pendings
		s.giveBackBatch(b)
	}()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(b.line, maxRecordBytes)
	width := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(pendings) >= MaxBatchRecords {
			writeJSON(w, http.StatusRequestEntityTooLarge, BatchCapError{
				Error:           fmt.Sprintf("batch exceeds the %d-record cap; split it into smaller batches", MaxBatchRecords),
				MaxBatchRecords: MaxBatchRecords,
			})
			return
		}
		// Decode in place, into a vector as wide as the previous
		// record's: json then grows it once, not by doubling.
		pendings = append(pendings, pending{rec: batchRecord{Vector: make([]float64, 0, width)}})
		p := &pendings[len(pendings)-1]
		switch err := json.Unmarshal(line, &p.rec); {
		case err != nil:
			p.out = BatchResult{Error: "bad json: " + err.Error(), Status: http.StatusBadRequest}
		case p.rec.Stream == "":
			p.out = BatchResult{Error: "missing stream id", Status: http.StatusBadRequest}
		case len(p.rec.Vector) == 0:
			p.out = BatchResult{Stream: p.rec.Stream, Error: "empty vector", Status: http.StatusBadRequest}
		default:
			p.ok, width = true, len(p.rec.Vector)
		}
	}
	if err := sc.Err(); err != nil && len(pendings) == 0 {
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(pendings) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	s.observeRecords(pendings, r.Header.Get(cluster.ForwardedHeader) != "", func(i int) { enc.Encode(&pendings[i].out) })
}

// batchScratch is one batch request's line buffer and record slice,
// reused through Server.batchFree: allocated per request they were two
// thirds of the daemon's garbage on 64-record batches, and a small live
// heap was collected several times as often as the records make it.
type batchScratch struct {
	line     []byte
	pendings []pending
}

// maxKeptPendings bounds the record slice a free scratch keeps.
const maxKeptPendings = 1024

// borrowBatch takes a free scratch, or allocates one.
func (s *Server) borrowBatch() *batchScratch {
	select {
	case b := <-s.batchFree:
		return b
	default:
		return &batchScratch{line: make([]byte, 0, 64*1024)}
	}
}

// giveBackBatch frees b once nothing reads its records any more,
// clearing them so a kept slice pins no vector.
func (s *Server) giveBackBatch(b *batchScratch) {
	clear(b.pendings)
	if b.pendings = b.pendings[:0]; cap(b.pendings) > maxKeptPendings {
		b.pendings = nil
	}
	select {
	case s.batchFree <- b:
	default:
	}
}

// pending is one record on its way through observeRecords: parsed and
// validated (ok), or already answered in out.
type pending struct {
	rec    batchRecord
	ok     bool
	out    BatchResult
	done   <-chan ingest.Result
	fwd    *forwardGroup // non-nil when another node scores this record
	fwdIdx int           // this record's line index in fwd's sub-batch
}

// observeRecords is the one path of every observed vector, for both
// observe endpoints: it routes each ok record to its ring owner, admits
// the local ones, forwards the rest in one sub-batch per peer, awaits
// every outcome in request order and leaves it in the record's out,
// calling answer (when non-nil) with the record's index as soon as it
// is known, so a batch encodes early results while later ones are still
// scored. All local
// records are enqueued before any is awaited, so consecutive records
// for one stream coalesce into single dispatcher passes, and the
// sub-batches travel while they are scored. Records that already
// crossed a hop (forwarded) are scored here whatever the ring says: the
// loop guard.
func (s *Server) observeRecords(ps []pending, forwarded bool, answer func(i int)) {
	var groups map[string]*forwardGroup
	if s.node != nil && forwarded {
		n := 0
		for i := range ps {
			if ps[i].ok {
				n++
			}
		}
		s.node.NoteForwardedIn(n)
	} else if s.node != nil {
		self := s.node.Self()
		for i := range ps {
			p := &ps[i]
			if !p.ok {
				continue
			}
			owner := s.node.Owner(p.rec.Stream)
			if owner == self {
				continue
			}
			if groups == nil {
				groups = make(map[string]*forwardGroup)
			}
			g := groups[owner]
			if g == nil {
				g = &forwardGroup{peer: owner}
				groups[owner] = g
			}
			p.fwd, p.fwdIdx = g, g.add(p.rec)
		}
	}
	forwardAll(s.node, groups)
	for i := range ps {
		p := &ps[i]
		if !p.ok || p.fwd != nil {
			continue
		}
		ack, err := s.reg.Enqueue(p.rec.Stream, p.rec.Vector)
		switch {
		case errors.Is(err, ingest.ErrOverload):
			p.out = BatchResult{
				Stream: p.rec.Stream, Shed: true,
				RetryAfterMs: s.reg.RetryAfter().Milliseconds(),
			}
		case err != nil:
			p.out = BatchResult{Stream: p.rec.Stream, Error: err.Error(), Status: http.StatusServiceUnavailable}
		default:
			p.done = ack.Done
		}
	}
	for i := range ps {
		p := &ps[i]
		switch {
		case p.fwd != nil:
			p.out = p.fwd.result(p.fwdIdx, p.rec.Stream)
		case p.done != nil:
			p.out = toBatchResult(p.rec.Stream, <-p.done)
			if s.node != nil {
				p.out.Node = s.node.Self()
			}
		}
		if answer != nil {
			answer(i)
		}
	}
}

// toBatchResult maps an ingest result onto one batch response line.
func toBatchResult(stream string, res ingest.Result) BatchResult {
	out := BatchResult{Stream: stream, Seq: res.Seq}
	switch {
	case res.Err != nil:
		out.Error, out.Status = res.Err.Error(), http.StatusInternalServerError
	case res.BadShape:
		out.Error, out.Status = "vector shape does not match this stream's detector", http.StatusBadRequest
	case res.Dropped:
		out.Dropped = true
	case res.Ready:
		out.Ready = true
		out.Score = core.FiniteOrZero(res.Score)
		out.Nonconformity = core.FiniteOrZero(res.Nonconformity)
		out.Alert = res.Alert
		out.FineTuned = res.FineTuned
		out.Source = res.Source
		out.Threshold = core.FiniteOrZero(res.Threshold)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing sensible left to do.
		_ = err
	}
}
