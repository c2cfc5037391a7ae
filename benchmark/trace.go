package main

import (
	"bufio"
	"encoding"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
	"streamad/internal/server"
)

// The traced replay: the same generated inputs, in-process, in stages,
// with a span around every call into a layer's public functions. No
// product code is edited: spans come from this file's wrappers (the
// detector and thresholder the server is configured with) and from the
// calls the replay itself makes.

// replayDivisor is the share of the timed phase each replay stage runs:
// its first 1/replayDivisor requests per connection (the issue allows up
// to a third; five stages must fit the driver's time cap).
const replayDivisor = 8

// span is one timed interval. Parent is the index of the span that
// caused it (−1 for a root); spans of one request share Request (−1 for
// work no request caused, such as a count-triggered snapshot).
type span struct {
	name    uint8
	start   int64 // ns since the recorder started
	end     int64
	parent  int32
	request int32
}

// Span names, indexes into spanNames.
const (
	spHandle uint8 = iota
	spIngest
	spStep
	spAlert
	spSave
	spLoad
	spPageOut
	spPageIn
	spAppend
	spSnapWrite
	spSnapRead
	spPageWrite
	spPageRead
)

var spanNames = []string{
	"server.handle", "ingest.request", "detector.step", "score.alert",
	"detector.save", "detector.load", "detector.pageout", "detector.pagein",
	"persist.append", "persist.snapshot_write", "persist.snapshot_read",
	"persist.page_write", "persist.page_read",
}

// recorder keeps spans in memory; they are written out when the
// benchmark ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stage []int // spans[stage[k]:stage[k+1]] belong to stage k
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// begin opens a span and returns its index. The clock is read last, so
// the span covers the call that follows and not the wait for the
// recorder's lock, which would otherwise be billed to a 2 µs Step.
func (r *recorder) begin(name uint8, parent, request int32) int32 {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, parent: parent, request: request})
	id := int32(len(r.spans) - 1)
	r.spans[id].start = r.now()
	r.mu.Unlock()
	return id
}

// finish closes a span and returns its start and duration.
func (r *recorder) finish(id int32) (start, dur int64) {
	now := r.now()
	r.mu.Lock()
	r.spans[id].end = now
	start = r.spans[id].start
	r.mu.Unlock()
	return start, now - start
}

// restart moves a span's start to now: a root span is allocated when
// its request is planned and starts when the handler is entered.
func (r *recorder) restart(id int32) {
	now := r.now()
	r.mu.Lock()
	r.spans[id].start = now
	r.mu.Unlock()
}

// streamTrace links the wrappers of one stream to the requests that
// carry its vectors: owner[k] is the request whose record is the k-th
// live Step of the stream.
type streamTrace struct {
	rec   *recorder
	live  bool // false while a restore replays old vectors
	idx   int
	owner []ownerRef
	cur   ownerRef // request of the Step in progress
	// Stage b: enqRet[k] is when Enqueue returned for live step k. The
	// connection goroutine stores it while a pool worker may already be in
	// that Step, so it is pre-sized and atomic; zero means not stored yet.
	enqRet []atomic.Int64
	enqued int     // slots the connection goroutine has filled
	waits  []int64 // stage b: Enqueue return → Step entry
	// What the wrapper saw, for the detector metrics.
	fineTunes []int64 // duration of each Step that fine-tuned
	fits      []int64 // duration of the Step that ended warm-up
	ready     bool
	lastStep  int64 // duration of the latest Step
	warmMax   int64 // longest Step seen before the first score
}

type ownerRef struct{ request, root int32 }

var noOwner = ownerRef{-1, -1}

// pagedDetector is what streamadd's detectors offer the registry.
type pagedDetector interface {
	ingest.Stepper
	ingest.Checkpointer
	core.Pager
}

// tracedDetector forwards to the real detector and records a span per
// call. It is what server.Config.NewDetector returns in traced stages.
type tracedDetector struct {
	inner pagedDetector
	st    *streamTrace
}

func (d *tracedDetector) Step(v []float64) (core.Result, bool) {
	st := d.st
	st.cur = noOwner
	if st.live && st.idx < len(st.owner) {
		st.cur = st.owner[st.idx]
	}
	id := st.rec.begin(spStep, st.cur.root, st.cur.request)
	res, ok := d.inner.Step(v)
	start, dur := st.rec.finish(id)
	st.lastStep = dur
	if st.live && st.idx < len(st.enqRet) {
		// A Step that began before Enqueue returned did not wait.
		wait := int64(0)
		if ret := st.enqRet[st.idx].Load(); ret != 0 && start > ret {
			wait = start - ret
		}
		st.waits = append(st.waits, wait)
	}
	if st.live {
		st.idx++
	}
	if !st.ready {
		// The initial Fit runs inside the longest Step of the warm-up.
		if dur > st.warmMax {
			st.warmMax = dur
		}
		if ok {
			st.fits = append(st.fits, st.warmMax)
		}
	}
	st.ready = st.ready || ok
	if res.FineTuned {
		st.fineTunes = append(st.fineTunes, dur)
	}
	return res, ok
}

func (d *tracedDetector) Save() ([]byte, error) {
	id := d.st.rec.begin(spSave, -1, -1)
	defer d.st.rec.finish(id)
	return d.inner.Save()
}

func (d *tracedDetector) Load(b []byte) error {
	id := d.st.rec.begin(spLoad, -1, -1)
	defer d.st.rec.finish(id)
	d.st.ready = true // a checkpoint taken after warm-up
	return d.inner.Load(b)
}

func (d *tracedDetector) PageOut() ([]byte, error) {
	id := d.st.rec.begin(spPageOut, -1, -1)
	defer d.st.rec.finish(id)
	return d.inner.PageOut()
}

func (d *tracedDetector) PageIn(b []byte) error {
	o := noOwner // a page-in is caused by the request whose Step comes next
	if d.st.live && d.st.idx < len(d.st.owner) {
		o = d.st.owner[d.st.idx]
	}
	id := d.st.rec.begin(spPageIn, o.root, o.request)
	defer d.st.rec.finish(id)
	return d.inner.PageIn(b)
}

func (d *tracedDetector) Paged() bool { return d.inner.Paged() }

// Close lets the registry settle background training on eviction.
func (d *tracedDetector) Close() {
	if c, ok := d.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// tracedThresholder records the alert decision of every scored vector.
// It forwards the binary marshalling the snapshot path needs.
type tracedThresholder struct {
	inner *score.QuantileThresholder
	//streamad:transient — trace bookkeeping of the replay, not alert-policy state
	st *streamTrace
}

func (t *tracedThresholder) Alert(f float64) bool {
	id := t.st.rec.begin(spAlert, t.st.cur.root, t.st.cur.request)
	a := t.inner.Alert(f)
	t.st.rec.finish(id)
	return a
}

func (t *tracedThresholder) Threshold() float64             { return t.inner.Threshold() }
func (t *tracedThresholder) Name() string                   { return t.inner.Name() }
func (t *tracedThresholder) MarshalBinary() ([]byte, error) { return t.inner.MarshalBinary() }
func (t *tracedThresholder) UnmarshalBinary(b []byte) error { return t.inner.UnmarshalBinary(b) }

var (
	_ encoding.BinaryMarshaler   = (*tracedThresholder)(nil)
	_ encoding.BinaryUnmarshaler = (*tracedThresholder)(nil)
)

// tracer runs the replay stages of one workload.
type tracer struct {
	bb    *blackBox
	wl    *workload
	reqs  int // requests per connection per stage
	rec   *recorder
	root  string // scratch directory for the stages' state dirs
	pool  *streamad.ScorePool
	index map[string]int // stream id → index
}

// stage is one replay stage's streams and totals.
type stage struct {
	traces  []*streamTrace
	timed   timedResult
	records int
	// Heap allocations of stage a's timed requests alone: restore, fleet
	// building and the final checkpoint are outside.
	mallocs, allocBytes float64
}

func (tr *tracer) newTraces() []*streamTrace {
	out := make([]*streamTrace, tr.wl.streams)
	for i := range out {
		out[i] = &streamTrace{rec: tr.rec}
	}
	return out
}

// detectorFor builds the detector streamadd would build, sharing the
// scoring pool as the daemon does, wrapped when traces is non-nil.
func (tr *tracer) detectorFor(traces []*streamTrace) func(string) (ingest.Stepper, error) {
	return func(id string) (ingest.Stepper, error) {
		det, err := newDetector(tr.wl, tr.wl.spec, id, tr.pool)
		if err != nil || traces == nil {
			return det, err
		}
		return &tracedDetector{inner: det.(pagedDetector), st: traces[tr.index[id]]}, nil
	}
}

func (tr *tracer) thresholderFor(traces []*streamTrace) func(string) score.Thresholder {
	return func(id string) score.Thresholder {
		th := score.NewQuantileThresholder(alertQuantile)
		if traces == nil {
			return th
		}
		return &tracedThresholder{inner: th, st: traces[tr.index[id]]}
	}
}

// seedState copies the post-set-up state dir, so every stage restores
// the exact state the black-box timed phase started from.
func (tr *tracer) seedState(name string) (string, error) {
	dst := filepath.Join(tr.root, name)
	return dst, copyDir(tr.bb.seedDir, dst)
}

// replayFleet builds generators positioned where the timed phase starts.
func (tr *tracer) replayFleet(firstSeq uint64, dial func(c int) *conn) (*fleet, error) {
	f, err := newFleet(tr.bb.in, dial)
	if err != nil {
		return nil, err
	}
	for _, st := range f.streams {
		for k := 0; k < tr.wl.prefix(); k++ {
			st.gen.Next()
		}
		st.nextSeq = firstSeq
		st.verify = false // digests cover whole streams; the replay checks alert bits instead
	}
	return f, nil
}

// handlerTransport is an in-process http.RoundTripper: one connection's
// requests go straight into Server.ServeHTTP on a recorder.
type handlerTransport struct {
	h    http.Handler
	rec  *recorder // nil when untraced
	root int32     // root span of the request about to be sent
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	if t.rec != nil {
		t.rec.restart(t.root)
	}
	t.h.ServeHTTP(w, req)
	if t.rec != nil {
		t.rec.finish(t.root)
	}
	return w.Result(), nil
}

// inProc is streamadd's serving stack — store, registry, HTTP handler —
// assembled in this process on a state dir, the way cmd/streamadd does.
type inProc struct {
	srv   *server.Server
	store *persist.Store
}

// openInProc restores whatever the state dir holds and returns a
// serving handler.
func openInProc(wl *workload, dir string, pool *streamad.ScorePool,
	newDet func(string) (ingest.Stepper, error), newTh func(string) score.Thresholder) (*inProc, error) {
	store, err := persist.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		NewDetector: newDet, NewThresholder: newTh, ScorePool: pool,
		Store: store, SnapshotEvery: wl.snapshotEvery(), MaxStreams: 2048,
		WarmAfter: wl.warmAfter, StreamTTL: wl.streamTTL,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	if _, _, err := srv.RestoreStreams(); err != nil {
		srv.Close()
		store.Close()
		return nil, err
	}
	return &inProc{srv: srv, store: store}, nil
}

// close takes the final checkpoint and releases the store.
func (p *inProc) close() error {
	err := p.srv.Close()
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// stageHandler is stage (a): the workload's requests through
// Server.ServeHTTP with a real persist.Store. traced selects the
// wrapped detector and thresholder; the untraced twin gives the
// tracing overhead, the allocation counts (of the timed requests only,
// like generatorAllocs) and the in-process latency.
func (tr *tracer) stageHandler(name string, traced bool) (*stage, error) {
	dir, err := tr.seedState(name)
	if err != nil {
		return nil, err
	}
	sg := &stage{}
	if traced {
		sg.traces = tr.newTraces()
	}
	ip, err := openInProc(tr.wl, dir, tr.pool, tr.detectorFor(sg.traces), tr.thresholderFor(sg.traces))
	if err != nil {
		return nil, err
	}
	defer ip.close()
	srv := ip.srv
	transports := make([]*handlerTransport, tr.wl.conns)
	for c := range transports {
		transports[c] = &handlerTransport{h: srv}
		if traced {
			transports[c].rec = tr.rec
		}
	}
	f, err := tr.replayFleet(uint64(tr.wl.prefix()), func(c int) *conn { return newConnVia(transports[c], "http://replay") })
	if err != nil {
		return nil, err
	}
	if traced {
		for _, st := range sg.traces {
			st.live = true
		}
		var next int32
		var mu sync.Mutex
		f.hook = func(c int, req *request) {
			mu.Lock()
			id := next
			next++
			mu.Unlock()
			root := tr.rec.begin(spHandle, -1, id)
			transports[c].root = root
			for _, s := range req.recs {
				sg.traces[s].owner = append(sg.traces[s].owner, ownerRef{id, root})
			}
		}
	}
	sg.mallocs, sg.allocBytes = memDelta(func() { sg.timed = f.runTimed(tr.reqs) })
	sg.records = f.timedRecords()
	if f.failed > 0 {
		return nil, fmt.Errorf("replay %s: %d failed records: %v", name, f.failed, f.firstFail)
	}
	return sg, tr.sameAlerts(name, f)
}

// sameAlerts checks the replay against the black-box run: every
// stream's alert bits over the replayed prefix must be the ones the
// real server returned.
func (tr *tracer) sameAlerts(name string, f *fleet) error {
	for i, st := range f.streams {
		ref := tr.bb.fleet.streams[i].alert
		if len(st.alert) > len(ref) {
			return fmt.Errorf("replay %s: %s answered %d records, the black-box run %d", name, st.id, len(st.alert), len(ref))
		}
		for k, a := range st.alert {
			if a != ref[k] {
				return fmt.Errorf("replay %s: %s record %d: alert %v in-process, %v over the wire", name, st.id, k, a, ref[k])
			}
		}
	}
	return nil
}

// stageIngest is stage (b): the same requests straight into
// ingest.Registry — Enqueue every record of the request, then await
// every result, as the batch handler does (Observe for the
// single-vector workload) — with or without a Store. Without one, the
// registry adopts the seed state's snapshots and WAL tails instead of
// restoring them itself.
//
//streamad:lifecycle — one goroutine per connection, joined before return.
func (tr *tracer) stageIngest(name string, withStore bool) (*stage, error) {
	dir, err := tr.seedState(name)
	if err != nil {
		return nil, err
	}
	store, err := persist.Open(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	sg := &stage{traces: tr.newTraces()}
	cfg := ingest.Config{
		NewDetector: tr.detectorFor(sg.traces), NewThresholder: tr.thresholderFor(sg.traces),
		ScorePool: tr.pool, MaxStreams: 2048,
	}
	if withStore {
		cfg.Store, cfg.SnapshotEvery = store, tr.wl.snapshotEvery()
	}
	reg, err := ingest.New(cfg)
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	if withStore {
		if _, _, err := reg.RestoreStreams(); err != nil {
			return nil, err
		}
	} else {
		// Same warm state, no persistence: adopt every stream's snapshot
		// and WAL tail before the clock starts, as RestoreStreams does.
		for i := 0; i < tr.wl.streams; i++ {
			id := tr.wl.streamID(i)
			snap, err := store.ReadSnapshot(id)
			if err != nil {
				return nil, err
			}
			tail, err := store.ReadWAL(id)
			if err != nil {
				return nil, err
			}
			if _, err := reg.Adopt(id, snap, tail); err != nil {
				return nil, err
			}
		}
	}
	f, err := tr.replayFleet(0, nil)
	if err != nil {
		return nil, err
	}
	quota := tr.wl.streamQuota(tr.reqs)
	for i, st := range sg.traces {
		st.live = true
		st.enqRet = make([]atomic.Int64, quota[i])
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		next   int32
		failed error
	)
	interval, start := tr.wl.intervalNs(), time.Now()
	for c := 0; c < tr.wl.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				entries []entry
				vecs    [][]float64
				recs    []int
				acks    []ingest.Ack
			)
			for i := 0; i < tr.reqs; i++ {
				if tr.wl.openLoop {
					// Paced like stage a: work that follows an idle gap runs
					// on cold caches, and the stages are subtracted.
					due := int64(c)*interval/int64(tr.wl.conns) + int64(i)*interval
					time.Sleep(time.Duration(due) - time.Since(start))
				}
				entries = tr.wl.request(c, i, entries[:0])
				vecs, recs = vecs[:0], recs[:0]
				for _, e := range entries {
					for k := 0; k < e.n; k++ {
						v, _ := f.streams[e.stream].gen.Next()
						vecs = append(vecs, append([]float64(nil), v...))
						recs = append(recs, e.stream)
					}
				}
				mu.Lock()
				id := next
				next++
				mu.Unlock()
				root := tr.rec.begin(spIngest, -1, id)
				for _, s := range recs {
					sg.traces[s].owner = append(sg.traces[s].owner, ownerRef{id, root})
				}
				tr.rec.restart(root)
				err := tr.ingestRequest(reg, f, sg, recs, vecs, &acks)
				tr.rec.finish(root)
				if err != nil {
					mu.Lock()
					failed = err
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, st := range sg.traces {
		sg.records += st.idx
	}
	return sg, failed
}

// stampEnqueued records that the stream's next live record is now queued.
// Only the connection that owns the stream calls it.
func (tr *tracer) stampEnqueued(st *streamTrace) {
	if st.enqued < len(st.enqRet) {
		st.enqRet[st.enqued].Store(tr.rec.now())
	}
	st.enqued++
}

// ingestRequest pushes one request's records through the registry.
func (tr *tracer) ingestRequest(reg *ingest.Registry, f *fleet, sg *stage, recs []int, vecs [][]float64, acks *[]ingest.Ack) error {
	if tr.wl.shape == shapeSingle {
		tr.stampEnqueued(sg.traces[recs[0]]) // Observe steps inline: no queue
		res, err := reg.Observe(f.streams[recs[0]].id, vecs[0])
		if err != nil || res.Err != nil || !res.Ready {
			return fmt.Errorf("observe: %v %v ready=%v", err, res.Err, res.Ready)
		}
		return nil
	}
	*acks = (*acks)[:0]
	for k, s := range recs {
		ack, err := reg.Enqueue(f.streams[s].id, vecs[k])
		if err != nil {
			return fmt.Errorf("enqueue: %w", err)
		}
		tr.stampEnqueued(sg.traces[s])
		*acks = append(*acks, ack)
	}
	for _, ack := range *acks {
		if res := <-ack.Done; res.Err != nil || !res.Ready {
			return fmt.Errorf("result seq %d: %v ready=%v", res.Seq, res.Err, res.Ready)
		}
	}
	return nil
}

// directStats is what stages (c) and (d) measured besides their spans.
type directStats struct {
	walBytes     float64   // WAL bytes per appended vector
	snapBytes    []float64 // snapshot file sizes
	pageBytes    []float64 // page blob sizes
	stateBytes   []float64 // detector checkpoint sizes
	aloneStepNs  float64   // mean Step ns of the whole detector replayed alone
	memberStepNs []float64 // …and of each ensemble member on the same input
	traces       []*streamTrace
}

// timed records a root span around one direct call into a layer.
func (r *recorder) timed(name uint8, fn func() error) error {
	id := r.begin(name, -1, -1)
	err := fn()
	r.finish(id)
	return err
}

// stagePersist is stage (c): the stage's (id, seq, vector) sequence
// appended straight into a fresh persist.Store from one goroutine per
// connection, then snapshot and page files written and read back.
// Snapshots come from Registry.Snapshot on the restored seed state;
// page blobs from real PageOut calls on the same detectors.
//
//streamad:lifecycle — one goroutine per connection, joined before return.
func (tr *tracer) stagePersist(ds *directStats) error {
	dir := filepath.Join(tr.root, "direct")
	store, err := persist.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	f, err := tr.replayFleet(0, nil)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for c := 0; c < tr.wl.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var entries []entry
			for i := 0; i < tr.reqs; i++ {
				entries = tr.wl.request(c, i, entries[:0])
				for _, e := range entries {
					st := f.streams[e.stream]
					for k := 0; k < e.n; k++ {
						v, _ := st.gen.Next()
						if err := tr.rec.timed(spAppend, func() error { return store.Append(st.id, st.nextSeq, v) }); err != nil {
							f.fail(1, "append: %v", err)
						}
						st.nextSeq++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if f.failed > 0 {
		return fmt.Errorf("direct append: %v", f.firstFail)
	}
	appended := 0
	for _, st := range f.streams {
		appended += int(st.nextSeq)
	}
	if appended > 0 {
		ds.walBytes = float64(dirBytes(dir)) / float64(appended)
	}

	// Snapshot and page files of up to 64 streams, spread over the fleet.
	seed, err := tr.seedState("direct-seed")
	if err != nil {
		return err
	}
	seedStore, err := persist.Open(seed)
	if err != nil {
		return err
	}
	defer seedStore.Close()
	ds.traces = tr.newTraces()
	reg, err := ingest.New(ingest.Config{
		NewDetector: tr.detectorFor(nil), NewThresholder: tr.thresholderFor(nil),
		ScorePool: tr.pool, Store: seedStore, MaxStreams: 2048,
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	if _, _, err := reg.RestoreStreams(); err != nil {
		return err
	}
	step := tr.wl.streams / 64
	if step < 1 {
		step = 1
	}
	for i := 0; i < tr.wl.streams; i += step {
		if err := tr.persistOne(ds, reg, store, tr.wl.streamID(i)); err != nil {
			return err
		}
	}
	return nil
}

// persistOne writes and reads back one stream's snapshot and page file,
// and takes a wrapped detector loaded from that snapshot through
// Save/Load and PageOut/PageIn.
func (tr *tracer) persistOne(ds *directStats, reg *ingest.Registry, store *persist.Store, id string) error {
	snap, err := reg.Snapshot(id)
	if err != nil {
		return err
	}
	if err := tr.rec.timed(spSnapWrite, func() error { return store.WriteSnapshot(snap) }); err != nil {
		return err
	}
	if err := tr.rec.timed(spSnapRead, func() error { _, err := store.ReadSnapshot(id); return err }); err != nil {
		return err
	}
	if file, err := persist.EncodeSnapshotFile(snap); err == nil {
		ds.snapBytes = append(ds.snapBytes, float64(len(file)))
	}
	det, err := tr.detectorFor(ds.traces)(id)
	if err != nil {
		return err
	}
	td := det.(*tracedDetector)
	defer td.Close()
	if err := td.Load(snap.Detector); err != nil {
		return err
	}
	state, err := td.Save()
	if err != nil {
		return err
	}
	blob, err := td.PageOut()
	if err != nil {
		return err
	}
	ds.stateBytes = append(ds.stateBytes, float64(len(state)))
	ds.pageBytes = append(ds.pageBytes, float64(len(blob)))
	if err := tr.rec.timed(spPageWrite, func() error { return store.WritePage(id, blob) }); err != nil {
		return err
	}
	var back []byte
	if err := tr.rec.timed(spPageRead, func() (err error) { back, err = store.ReadPage(id); return err }); err != nil {
		return err
	}
	return td.PageIn(back)
}

// stageStandalone is stage (d): one stream's inputs from its very first
// vector through a fresh wrapped detector with no registry around it —
// which is where the Step that ends warm-up (the initial Fit) is seen —
// and, for an ensemble, through each member pipeline alone on the same
// input, which is what parallel_speedup compares the pooled ensemble
// Step with.
func (tr *tracer) stageStandalone(ds *directStats) error {
	i := tr.wl.verify[0]
	n := tr.wl.prefix() + tr.bb.in.quota[i]/replayDivisor
	specs := []string{tr.wl.spec}
	if streamad.IsEnsembleSpec(tr.wl.spec) {
		es, err := streamad.ParseEnsembleSpec(tr.wl.spec)
		if err != nil {
			return err
		}
		for _, m := range es.Members {
			specs = append(specs, m.String())
		}
	}
	for k, spec := range specs {
		gen, err := tr.bb.in.stream(i)
		if err != nil {
			return err
		}
		det, err := newDetector(tr.wl, spec, "", tr.pool)
		if err != nil {
			return err
		}
		st := &streamTrace{rec: tr.rec}
		td := &tracedDetector{inner: det.(pagedDetector), st: st}
		var scored, ns int64
		for s := 0; s < n; s++ {
			v, _ := gen.Next()
			if _, ok := td.Step(v); ok && s >= tr.wl.prefix() {
				scored++
				ns += st.lastStep
			}
		}
		td.Close()
		switch {
		case k == 0:
			ds.traces = append(ds.traces, st)
			if scored > 0 {
				ds.aloneStepNs = float64(ns) / float64(scored)
			}
		case scored > 0:
			ds.memberStepNs = append(ds.memberStepNs, float64(ns)/float64(scored))
		}
	}
	return nil
}

// nullHandler answers every request with an empty 200: running the
// generator against it counts the generator's own allocations.
type nullHandler struct{}

func (nullHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.WriteHeader(http.StatusOK)
}

// memDelta runs fn and returns the heap allocations it made.
func memDelta(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// generatorAllocs replays the stage's requests against nullHandler.
func (tr *tracer) generatorAllocs() (mallocs, bytes float64, err error) {
	f, err := tr.replayFleet(0, func(int) *conn {
		return newConnVia(&handlerTransport{h: nullHandler{}}, "http://null")
	})
	if err != nil {
		return 0, 0, err
	}
	f.nocheck = true
	closed := *tr.wl
	closed.openLoop = false // pacing allocates nothing; skip the waiting
	f.wl = &closed
	mallocs, bytes = memDelta(func() { f.runTimed(tr.reqs) })
	return mallocs, bytes, nil
}

// writeSpans writes every span of the replay as one JSON document:
// a name table, the column names, and one row per span.
func (r *recorder) writeSpans(path, workload string, stages []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(file, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"stages\":[")
	for i, n := range stages {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"name\":%q,\"first_span\":%d}", n, r.stage[i])
	}
	w.WriteString("],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request_id\"],\"spans\":[\n")
	var buf []byte
	for i, s := range r.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.request), 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// selfTimes returns, for the root spans named root in spans[lo:hi], the
// summed duration and the summed self time: duration minus the part of
// the interval the span's children cover (children may overlap each
// other on the pool's workers, so the union is taken).
func selfTimes(spans []span, lo, hi int, root uint8) (total, self int64) {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans[lo:hi] {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	for i := lo; i < hi; i++ {
		s := spans[i]
		if s.name != root || s.parent >= 0 {
			continue
		}
		dur := s.end - s.start
		total += dur
		ch := kids[int32(i)]
		sort.Slice(ch, func(a, b int) bool { return ch[a].s < ch[b].s })
		var covered, end int64
		end = s.start
		for _, c := range ch {
			if c.e <= end {
				continue
			}
			if c.s > end {
				end = c.s
			}
			if c.e > s.end {
				c.e = s.end
			}
			if c.e > end {
				covered += c.e - end
				end = c.e
			}
		}
		self += dur - covered
	}
	return total, self
}

// spanDurations collects the durations (ns) of the spans named name.
func spanDurations(spans []span, name uint8) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func toFloats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
