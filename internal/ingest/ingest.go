// Package ingest is the sharded ingestion layer between the HTTP
// transport and the detectors: the fleet-scale front end that
// "thousands of independent device streams" needs. The stream
// registry is split into N shards (FNV-1a hash of the stream id, one
// mutex per shard), so stream lookup and creation never serialize the
// whole fleet behind one lock the way the first server did.
//
// Every stream owns a bounded queue of pending vectors. Admission
// assigns a per-stream sequence number and obeys the configured
// overload policy:
//
//   - Block (default): the producer waits for queue space — the
//     backpressure behaviour of the original synchronous endpoint.
//   - Shed: a full queue rejects the vector with ErrOverload; the HTTP
//     layer turns that into 429 + Retry-After.
//   - DropOldest: the oldest queued vector is discarded (its waiter gets
//     a Dropped result) and the new one is admitted.
//
// A micro-batching dispatcher drains each queue: whoever admits a vector
// into an idle stream submits that stream's dispatcher to the scoring
// pool. The dispatcher repeatedly grabs the entire queue and scores it
// in one locked detector pass — one lock acquisition and one cache-warm
// detector session for however many vectors accumulated, instead of one
// per vector. The pass logs every vector, then steps the logged ones as one
// core.StepBatch, so a model that predicts in batches runs one forward
// pass per run of core.MaxBatch of them. Per-stream order is total:
// sequence numbers are assigned under the queue lock and processed in
// assignment order, so scores are bit-identical to the serial path.
//
// The registry also owns what the server used to do per stream behind a
// global mutex: WAL-before-score durability, background snapshots,
// restore-on-startup (and lazy restore after eviction), and optional
// TTL eviction of idle streams.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streamad/internal/core"
	"streamad/internal/persist"
	"streamad/internal/pool"
	"streamad/internal/score"
	"streamad/internal/stats"
)

// Stepper is the per-stream detector contract: the scoring facet of
// core.Node. Everything this repo builds is a full Node; the registry
// still asks a detector only for what it is about to use — Checkpointer
// to persist, core.Pager to demote, core.FineTuneStatser to report,
// core.Closer to settle background training, and whatever core.TreeStats
// finds on the way down — because a foreign Stepper (a test stub, a
// tracing wrapper) may offer less.
type Stepper = core.Stepper

// Checkpointer is the contract a detector must add to Stepper for the
// registry to persist it (every core.Node satisfies it).
type Checkpointer interface {
	Save() ([]byte, error)
	Load([]byte) error
}

// ErrOverload is returned by admission under the Shed policy when the
// stream's queue is full. Producers should back off for the RetryAfter
// hint and retry.
var ErrOverload = errors.New("ingest: stream queue full")

// ErrUnknownStream is returned by lookups for ids the registry has never
// seen (or has evicted without persisted state).
var ErrUnknownStream = errors.New("ingest: unknown stream")

// errEvicted makes an admission that raced the TTL evictor retry against
// a freshly created (or restored) stream.
var errEvicted = errors.New("ingest: stream evicted")

// Config assembles a Registry.
type Config struct {
	// NewDetector builds a detector for a new stream id (required).
	NewDetector func(stream string) (Stepper, error)
	// NewThresholder builds the per-stream alert policy (default: a
	// streaming 0.99-quantile).
	NewThresholder func(stream string) score.Thresholder
	// Shards is the number of registry shards (default 8).
	Shards int
	// QueueDepth bounds each stream's pending-vector queue (default 64).
	QueueDepth int
	// Overload picks what admission does when a queue is full
	// (default Block).
	Overload Policy
	// MaxStreams bounds the number of live streams across all shards
	// (default 1024).
	MaxStreams int
	// StreamTTL, when positive, evicts streams with no observes for the
	// TTL: the stream is checkpointed (when a Store is configured) and
	// unloaded, freeing its MaxStreams slot. A later observe transparently
	// restores it from the checkpoint. Without a Store the eviction
	// discards the detector state.
	StreamTTL time.Duration
	// Store, when set, makes the registry durable: every admitted vector
	// is appended to the stream's WAL before it is scored, snapshots are
	// taken in the background, and RestoreStreams rebuilds state on
	// startup.
	Store *persist.Store
	// SnapshotInterval is how often the background snapshotter
	// checkpoints streams with WAL entries outstanding (0 disables timed
	// snapshots).
	SnapshotInterval time.Duration
	// SnapshotEvery checkpoints a stream once this many vectors
	// accumulate in its WAL, independent of the timer (0 disables the
	// entry trigger).
	SnapshotEvery int
	// Logf receives persistence and eviction diagnostics
	// (default: discard).
	Logf func(format string, args ...interface{})
	// ScorePool is the shared scoring pool stream dispatchers run on. When
	// nil the registry creates and owns one sized to GOMAXPROCS; when set
	// the caller owns it.
	ScorePool *pool.Pool
	// WarmAfter, when positive (requires Store), demotes streams with no
	// observes for the duration from hot to warm: the detector's window
	// state is paged to the snapshot store while the model stays resident.
	// The next observe transparently pages it back in. Combined with
	// StreamTTL > WarmAfter this yields the hot/warm/cold residency
	// ladder; detectors that don't implement core.Pager (the standalone
	// tier-0 detectors, which have no window worth paging) stay hot until
	// cold eviction.
	WarmAfter time.Duration
}

// Tier is a stream's residency tier. Cold streams are not resident at
// all (checkpointed and unloaded), so only Hot and Warm appear on live
// streams.
type Tier int32

const (
	// TierHot streams are fully resident.
	TierHot Tier = iota
	// TierWarm streams keep the model resident with window state paged to
	// the snapshot store.
	TierWarm
)

// String names the tier for stats and metrics labels.
func (t Tier) String() string {
	if t == TierWarm {
		return "warm"
	}
	return "hot"
}

// Registry is the sharded stream registry.
type Registry struct {
	cfg     Config
	shards  []*shard
	nlive   atomic.Int64 // live streams, bounded by MaxStreams
	met     ingestMetrics
	history atomic.Int64 // streams ever created (diagnostics)
	pool    *pool.Pool   // scoring pool dispatchers run on
	ownPool bool         // the registry created pool and must close it
	bufMu   sync.Mutex
	bufs    [][]byte // free scratch buffers; see borrow

	snapStop  chan struct{}
	snapDone  chan struct{}
	snapKick  chan string
	evictStop chan struct{}
	evictDone chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// shard is one slice of the registry: a mutex plus the streams hashing
// to it. The shard lock guards membership (lookup, create, evict), and
// serving a live stream never holds it. Creating a stream does: a cold
// restore (getOrCreate) replays the stream's WAL through its detector
// under the lock, so the first observe of a cold stream stalls first
// observes of other cold streams on the same shard for the length of
// that replay.
type shard struct {
	mu      sync.Mutex
	streams map[string]*stream
}

// stream is one stream's queue plus detector state. Two locks split the
// fast paths: qmu guards admission (queue, seq, busy flag) and procMu
// serializes detector passes with snapshots and stats reads. A
// dispatcher holds procMu once per drained batch, not once per vector.
type stream struct {
	id string

	qmu     sync.Mutex
	notFull sync.Cond // signalled when the dispatcher drains the queue
	queue   []item
	busy    bool   // a dispatcher is draining this stream
	closed  bool   // evicted; admissions must retry against a new stream
	seq     uint64 // next sequence number to assign

	dispatchFn func() // preallocated pool task: run this stream's dispatcher

	procMu   sync.Mutex
	det      Stepper
	th       score.Thresholder
	tier     atomic.Int32 // Tier; transitions under procMu, read lock-free
	seqDone  uint64       // all records with seq < seqDone are scored (or skipped)
	walSince int          // WAL appends since the last snapshot
	snapSeq  uint64       // seq boundary of the last written snapshot; WAL tails below it are gone

	// Scratch of processLocked, replay and fold, grown to the largest
	// batch: the vectors of one detector batch, their outcomes and their
	// Results.
	vecs [][]float64
	outs []core.Outcome
	res  []Result

	// The observable counters are atomics written under procMu but read
	// lock-free, so GET /v1/streams and /metrics never stall behind an
	// in-flight detector pass (which can run for milliseconds on large
	// ensembles).
	steps  atomic.Int64 // vectors consumed by the detector pass
	ready  atomic.Int64 // scored (post-warmup) steps
	alerts atomic.Int64
	thBits atomic.Uint64 // math.Float64bits of the last-seen threshold

	lastTouch atomic.Int64 // unix nanos of the last admission
}

// item is one queued vector and the promise its producer waits on.
type item struct {
	seq  uint64
	vec  []float64
	done chan Result
	err  error // the WAL refused the vector; set by the dispatcher
}

// Result is the outcome of one admitted vector. Exactly one of the
// normal fields (Ready/score set), Dropped, BadShape or Err describes
// what happened; Seq is always the vector's per-stream sequence number.
type Result struct {
	Seq           uint64
	Ready         bool
	Score         float64
	Nonconformity float64
	Threshold     float64
	Alert         bool
	FineTuned     bool
	// Source names the tier or member that produced the score, for
	// composite detectors ("tier0:zscore", "heavy:knn+sw+musigma+al");
	// empty for single-pipeline detectors.
	Source string
	// Dropped marks a vector discarded by the DropOldest policy before
	// it reached the detector.
	Dropped bool
	// BadShape marks a vector the detector rejected (dimension mismatch).
	BadShape bool
	// Err is a persistence failure; the vector was not consumed.
	Err error
}

// Ack is the admission receipt for one enqueued vector: its assigned
// sequence number and the channel its Result will arrive on.
type Ack struct {
	Seq  uint64
	Done <-chan Result
}

// New validates the configuration and returns a running Registry.
//
//streamad:lifecycle — owns the snapshotter and evictor goroutines; Close joins them.
func New(cfg Config) (*Registry, error) {
	if cfg.NewDetector == nil {
		return nil, fmt.Errorf("ingest: NewDetector is required")
	}
	if cfg.NewThresholder == nil {
		cfg.NewThresholder = func(string) score.Thresholder {
			return score.NewQuantileThresholder(0.99)
		}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.WarmAfter > 0 && cfg.Store == nil {
		return nil, fmt.Errorf("ingest: WarmAfter requires a Store to page window state to")
	}
	r := &Registry{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	r.met.batchSize = stats.NewHistogram(batchSizeBounds, 1)
	if cfg.ScorePool != nil {
		r.pool = cfg.ScorePool
	} else {
		r.pool = pool.New(0)
		r.ownPool = true
	}
	for i := range r.shards {
		r.shards[i] = &shard{streams: make(map[string]*stream)}
	}
	if cfg.Store != nil {
		r.snapStop = make(chan struct{})
		r.snapDone = make(chan struct{})
		r.snapKick = make(chan string, 64)
		go r.snapshotter()
	}
	// One maintenance loop serves both recency policies; it wakes at a
	// quarter of the shortest configured horizon, clamped to [10ms, 30s].
	wake := cfg.StreamTTL
	if cfg.WarmAfter > 0 && (wake <= 0 || cfg.WarmAfter < wake) {
		wake = cfg.WarmAfter
	}
	if wake > 0 {
		iv := wake / 4
		if iv < 10*time.Millisecond {
			iv = 10 * time.Millisecond
		}
		if iv > 30*time.Second {
			iv = 30 * time.Second
		}
		r.evictStop = make(chan struct{})
		r.evictDone = make(chan struct{})
		go r.evictor(iv)
	}
	return r, nil
}

// RetryAfter is the back-off hint producers should honour after a shed:
// one second.
func (r *Registry) RetryAfter() time.Duration { return time.Second }

// shardIndex hashes a stream id to its shard's index (FNV-1a).
func (r *Registry) shardIndex(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(len(r.shards)))
}

// shardFor returns the shard a stream id hashes to.
func (r *Registry) shardFor(id string) *shard { return r.shards[r.shardIndex(id)] }

// getOrCreate returns the live stream for id, building it on first use
// from whatever the store holds for the id (restore): a first observe, a
// restart's RestoreStreams and a cold stream's next observe all enter
// here. The shard lock is held across detector construction, so
// concurrent first observes of the same id build exactly one detector;
// streams on other shards are unaffected. The warnings describe
// tolerated damage in the replayed WAL.
func (r *Registry) getOrCreate(id string) (*stream, []string, error) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.streams[id]; ok {
		return st, nil, nil
	}
	if err := r.checkRoom(); err != nil {
		return nil, nil, err
	}
	st, warnings, err := r.restore(id)
	if err != nil {
		return nil, nil, err
	}
	sh.streams[id] = st
	r.nlive.Add(1)
	r.history.Add(1)
	return st, warnings, nil
}

// checkRoom refuses a new stream once MaxStreams are live.
func (r *Registry) checkRoom() error {
	if int(r.nlive.Load()) >= r.cfg.MaxStreams {
		return fmt.Errorf("ingest: stream limit %d reached", r.cfg.MaxStreams)
	}
	return nil
}

// newStream wires a bare stream around a fresh detector and thresholder
// from the registry's factories.
func (r *Registry) newStream(id string) (*stream, error) {
	det, err := r.cfg.NewDetector(id)
	if err != nil {
		return nil, err
	}
	st := &stream{id: id, det: det, th: r.cfg.NewThresholder(id)}
	st.notFull.L = &st.qmu
	st.thBits.Store(math.Float64bits(st.th.Threshold()))
	st.dispatchFn = func() { r.dispatch(st) }
	// Stamp creation as a touch: without it a concurrent evictor pass in
	// the window before admit's own stamp sees lastTouch == 0 and evicts
	// the stream the moment it is born.
	st.lastTouch.Store(time.Now().UnixNano())
	return st, nil
}

// Observe admits one vector and waits for its score: Enqueue plus a
// receive. A compat shim for the frozen benchmark's traced replay; see
// the list above streamad.ScorePool.
func (r *Registry) Observe(id string, vec []float64) (Result, error) {
	ack, err := r.Enqueue(id, vec)
	if err != nil {
		return Result{}, err
	}
	return <-ack.Done, nil
}

// Enqueue admits one vector and returns its Ack: it resolves the stream
// (retrying when it races the TTL evictor) and enqueues under the
// overload policy. Both observe endpoints queue every record of a
// request before waiting on any, which is what lets the dispatcher
// coalesce same-stream records into one detector pass. The dispatcher
// hop runs as a scoring-pool task, not a spawned goroutine, so
// concurrency stays O(workers) however many streams are live.
func (r *Registry) Enqueue(id string, vec []float64) (Ack, error) {
	for {
		st, _, err := r.getOrCreate(id)
		if err != nil {
			return Ack{}, err
		}
		st.lastTouch.Store(time.Now().UnixNano())
		it, start, err := r.enqueue(st, vec)
		if errors.Is(err, errEvicted) {
			continue
		}
		if err != nil {
			return Ack{}, err
		}
		if start {
			r.pool.Submit(st.dispatchFn, nil)
		}
		return Ack{Seq: it.seq, Done: it.done}, nil
	}
}

// enqueue admits one vector into the stream's bounded queue. The boolean
// reports whether the caller must submit a dispatcher for the stream.
func (r *Registry) enqueue(st *stream, vec []float64) (item, bool, error) {
	st.qmu.Lock()
	for {
		if st.closed {
			st.qmu.Unlock()
			return item{}, false, errEvicted
		}
		if len(st.queue) < r.cfg.QueueDepth {
			break
		}
		switch r.cfg.Overload {
		case Shed:
			st.qmu.Unlock()
			r.met.shed.Add(1)
			return item{}, false, ErrOverload
		case DropOldest:
			old := st.queue[0]
			copy(st.queue, st.queue[1:])
			st.queue = st.queue[:len(st.queue)-1]
			old.done <- Result{Seq: old.seq, Dropped: true}
			r.met.dropped.Add(1)
		default: // Block: wait for the dispatcher to drain the queue
			st.notFull.Wait()
		}
	}
	it := item{seq: st.seq, vec: vec, done: make(chan Result, 1)}
	st.seq++
	st.queue = append(st.queue, it)
	start := !st.busy
	if start {
		st.busy = true
	}
	st.qmu.Unlock()
	return it, start, nil
}

// dispatch drains the stream: it repeatedly swaps the whole queue out
// and scores it in one procMu-locked pass, exiting only when the queue
// is empty. Exactly one dispatcher runs per stream (the busy flag), so
// items are processed in sequence-number order.
func (r *Registry) dispatch(st *stream) {
	for {
		st.qmu.Lock()
		batch := st.queue
		st.queue = nil
		if len(batch) == 0 {
			st.busy = false
			// Wake quiesce waiters (Handoff) as well as blocked producers:
			// busy=false with an empty queue is the drained state they poll.
			st.notFull.Broadcast()
			st.qmu.Unlock()
			return
		}
		st.notFull.Broadcast()
		st.qmu.Unlock()
		r.met.batchSize.Observe(int64(len(batch)))
		st.procMu.Lock()
		if _, err := r.ensureResident(st, true); err != nil {
			// The stream cannot score without its paged window state; fail
			// the batch rather than step a hollow detector.
			for _, it := range batch {
				it.done <- Result{Seq: it.seq, Err: fmt.Errorf("ingest: page in %q: %w", st.id, err)}
			}
			st.procMu.Unlock()
			continue
		}
		r.processLocked(st, batch)
		st.procMu.Unlock()
	}
}

// processLocked logs a batch and scores it, answering every item in
// order; the caller holds st.procMu. Each vector is logged before it is
// scored: one the WAL cannot hold fails alone and is not consumed, so
// the on-disk state never lags what the detector has seen, and the
// logged ones are scored as one fold.
func (r *Registry) processLocked(st *stream, batch []item) {
	vecs := st.vecs[:0]
	for i := range batch {
		it := &batch[i]
		if r.cfg.Store != nil {
			if err := r.cfg.Store.Append(st.id, it.seq, it.vec); err != nil {
				it.err = fmt.Errorf("persist: %w", err)
				continue
			}
			st.walSince++
			if r.cfg.SnapshotEvery > 0 && st.walSince >= r.cfg.SnapshotEvery {
				select {
				case r.snapKick <- st.id:
				default: // snapshotter busy; the next trigger catches it
				}
			}
		}
		st.steps.Add(1)
		st.seqDone = it.seq + 1
		vecs = append(vecs, it.vec)
	}
	scored := st.fold(vecs)
	clear(vecs) // the vectors are the producers'
	st.vecs = vecs[:0]
	for _, it := range batch {
		res := Result{Seq: it.seq, Err: it.err}
		if it.err == nil {
			res, scored = scored[0], scored[1:]
			res.Seq = it.seq
		}
		it.done <- res
	}
}

// fold steps vecs through the stream's detector as one batch
// (core.StepBatch) and their scores through the alert policy one by one,
// in order, counting ready steps and alerts, and returns one Result per
// vector, Seq left to the caller; the slice is reused by the next fold.
// It is the routine the live dispatcher and every replay of a logged
// prefix (restart, cold restore, migration, standby) share. Sequence,
// step and WAL counters stay with the caller, which holds procMu or owns
// the stream unpublished.
func (st *stream) fold(vecs [][]float64) []Result {
	n := len(vecs)
	st.outs = slices.Grow(st.outs[:0], n)[:n]
	st.res = slices.Grow(st.res[:0], n)[:n]
	st.ready.Add(int64(core.StepBatch(st.det, vecs, st.outs)))
	for i, o := range st.outs {
		switch {
		case o.Rejected != nil: // the detectors' contract for a wrong-length vector
			st.res[i] = Result{BadShape: true}
		case !o.Ready: // warming up
			st.res[i] = Result{}
		default:
			st.res[i] = Result{
				Ready:         true,
				Score:         o.Score,
				Nonconformity: o.Nonconformity,
				FineTuned:     o.FineTuned,
				Source:        o.Source,
				// Read the boundary before Alert consumes the score: the
				// quantile policy reports +Inf until warm.
				Threshold: st.th.Threshold(),
			}
			if st.th.Alert(o.Score) {
				st.res[i].Alert = true
				st.alerts.Add(1)
			}
		}
	}
	st.thBits.Store(math.Float64bits(st.th.Threshold()))
	return st.res
}

// evictor is the idle-stream maintenance loop: warm paging first (so a
// stream can pass through hot→warm→cold on successive scans), then cold
// eviction.
func (r *Registry) evictor(interval time.Duration) {
	defer close(r.evictDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.evictStop:
			return
		case <-t.C:
			now := time.Now()
			r.PageIdle(now)
			r.EvictIdle(now)
		}
	}
}

// EvictIdle checkpoints and unloads every stream whose last observe is
// older than StreamTTL as of now, and returns how many it evicted.
// Streams with queued or in-flight work are skipped. Checkpoints are
// written in a pre-pass outside the shard lock, so the unloading pass
// finds the streams clean; one dirtied in between has been touched and
// is skipped, or else is checkpointed under the shard lock, where an
// observe of the same id cannot recreate it before its state is on disk.
func (r *Registry) EvictIdle(now time.Time) int {
	if r.cfg.StreamTTL <= 0 {
		return 0
	}
	if r.cfg.Store != nil {
		r.forIdle(now.Add(-r.cfg.StreamTTL), func(st *stream) {
			// A failure is retried, and reported, by the pass below.
			_ = r.snapshotStream(st.id, st, 1)
		})
	}
	cutoff := now.Add(-r.cfg.StreamTTL).UnixNano()
	evicted := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		for id, st := range sh.streams {
			if st.lastTouch.Load() > cutoff {
				continue
			}
			st.qmu.Lock()
			idle := len(st.queue) == 0 && !st.busy
			if idle {
				st.closed = true
				st.notFull.Broadcast()
			}
			st.qmu.Unlock()
			if !idle {
				continue
			}
			if r.cfg.Store != nil {
				if err := r.snapshotStream(id, st, 1); err != nil {
					r.cfg.Logf("streamad: evict %q: checkpoint failed, stream kept: %v", id, err)
					st.qmu.Lock()
					st.closed = false
					st.qmu.Unlock()
					continue
				}
				// The restore path never reads the page (if any).
				if err := r.cfg.Store.RemovePage(id); err != nil {
					r.cfg.Logf("streamad: evict %q: %v", id, err)
				}
			}
			// Settle background training before the detector is dropped so
			// eviction cannot leak an in-flight trainer or queued pool job.
			st.procMu.Lock()
			closeDetector(st.det)
			st.procMu.Unlock()
			if Tier(st.tier.Load()) == TierWarm {
				r.met.warmToCold.Add(1)
			} else {
				r.met.hotToCold.Add(1)
			}
			delete(sh.streams, id)
			r.nlive.Add(-1)
			r.met.evicted.Add(1)
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
}

// closeDetector settles a detector's background training, if it has any.
func closeDetector(det Stepper) {
	if c, ok := det.(core.Closer); ok {
		c.Close()
	}
}

// StreamInfo is an instantaneous snapshot of one stream's observable
// state, captured under the stream's own locks — never a registry-wide
// one — so collecting it does not stall ingestion on other streams.
type StreamInfo struct {
	ID        string
	Shard     int
	Seq       uint64 // sequence numbers assigned so far
	Steps     int    // vectors consumed by the detector
	Ready     int
	Alerts    int
	QueueLen  int
	Threshold float64
	Tier      string // residency tier ("hot" or "warm"; cold streams are not listed)
	// NodeStats is what one core.TreeStats walk over the detector tree
	// collected: the member rows of every ensemble in it and the cascade
	// counters, whatever the tree's shape. The walk needs the detector
	// quiescent, so both are omitted when the stream is mid-pass.
	core.NodeStats
	// FineTune carries the detector's serve/train split statistics when
	// it exposes them (nil otherwise). Read from lock-free atomics, so
	// the scrape never waits on an in-flight processing pass.
	FineTune *core.FineTuneStats
}

// Streams snapshots every live stream's counters. The per-shard locks
// are held only to collect the stream pointers; counters are then read
// under each stream's locks, and the caller encodes entirely lock-free.
func (r *Registry) Streams() []StreamInfo {
	out := make([]StreamInfo, 0, r.nlive.Load())
	r.forEach(func(st *stream) { out = append(out, r.streamInfo(st)) })
	return out
}

// StreamStats reports one stream's snapshot.
func (r *Registry) StreamStats(id string) (StreamInfo, bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	st, ok := sh.streams[id]
	sh.mu.Unlock()
	if !ok {
		return StreamInfo{}, false
	}
	return r.streamInfo(st), true
}

func (r *Registry) streamInfo(st *stream) StreamInfo {
	st.qmu.Lock()
	info := StreamInfo{ID: st.id, Seq: st.seq, QueueLen: len(st.queue)}
	st.qmu.Unlock()
	info.Shard = r.shardIndex(st.id)
	info.Steps = int(st.steps.Load())
	info.Ready = int(st.ready.Load())
	info.Alerts = int(st.alerts.Load())
	info.Threshold = math.Float64frombits(st.thBits.Load())
	info.Tier = Tier(st.tier.Load()).String()
	// Node detail needs the detector quiescent; rather than stall the
	// scrape behind an in-flight pass, omit it when the stream is busy —
	// the counters above are still fresh.
	if st.procMu.TryLock() {
		info.NodeStats = core.TreeStats(st.det)
		st.procMu.Unlock()
	}
	if fs, ok := st.det.(core.FineTuneStatser); ok {
		ft := fs.FineTuneStats()
		info.FineTune = &ft
	}
	return info
}

// Close stops the background loops and takes a final checkpoint of every
// dirty stream. It does not close the store — the caller that opened it
// owns that. Safe to call more than once.
func (r *Registry) Close() error {
	r.closeOnce.Do(func() {
		if r.evictStop != nil {
			close(r.evictStop)
			<-r.evictDone
		}
		if r.snapStop != nil {
			close(r.snapStop)
			<-r.snapDone
		}
		r.closeErr = r.SnapshotAll()
		if r.ownPool {
			r.pool.Close()
		}
	})
	return r.closeErr
}
