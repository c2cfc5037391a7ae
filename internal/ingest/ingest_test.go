package ingest_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// histDetector is a deterministic, history-dependent, deliberately
// concurrency-unsafe stub: its score folds every past vector into an
// accumulator, so any reordering or concurrent stepping of one stream's
// vectors changes the scores (and trips the race detector).
type histDetector struct {
	warm int
	n    int
	acc  float64
}

func (d *histDetector) Step(v []float64) (core.Result, bool) {
	if len(v) != 2 {
		panic("dim mismatch")
	}
	d.n++
	d.acc = 0.9*d.acc + v[0] + 0.01*float64(d.n)
	if d.n <= d.warm {
		return core.Result{}, false
	}
	s := 0.5 + 0.5*math.Tanh(d.acc)
	return core.Result{Score: s, Nonconformity: s}, true
}

// gateDetector blocks every Step until the release channel yields, and
// reports each entry on entered — the lever the overload tests use to
// hold a stream's dispatcher mid-pass while its queue fills.
type gateDetector struct {
	entered chan struct{}
	release chan struct{}
	n       int
}

func (d *gateDetector) Step(v []float64) (core.Result, bool) {
	select {
	case d.entered <- struct{}{}:
	default:
	}
	<-d.release
	d.n++
	return core.Result{Score: 0.1, Nonconformity: 0.1}, true
}

func newHistRegistry(t *testing.T, cfg ingest.Config) *ingest.Registry {
	t.Helper()
	if cfg.NewDetector == nil {
		cfg.NewDetector = func(string) (ingest.Stepper, error) {
			return &histDetector{warm: 2}, nil
		}
	}
	if cfg.NewThresholder == nil {
		cfg.NewThresholder = func(string) score.Thresholder {
			return &score.StaticThresholder{T: 0.9}
		}
	}
	r, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// vec builds stream s's i-th vector, deterministically.
func vec(s, i int) []float64 {
	return []float64{math.Sin(float64(s) + float64(i)/9), math.Cos(float64(i) / 7)}
}

func TestPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ingest.Policy
	}{
		{"block", ingest.Block},
		{"shed", ingest.Shed},
		{"drop-oldest", ingest.DropOldest},
	} {
		got, err := ingest.ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Policy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ingest.ParsePolicy("lossy"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// TestObserveMatchesSerialDetector: the queued, dispatched path must be
// bit-identical to stepping the detector and thresholder by hand.
func TestObserveMatchesSerialDetector(t *testing.T) {
	r := newHistRegistry(t, ingest.Config{})
	ref := &histDetector{warm: 2}
	refTh := &score.StaticThresholder{T: 0.9}
	for i := 0; i < 100; i++ {
		v := vec(1, i)
		got, err := r.Observe("s", v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint64(i) {
			t.Fatalf("step %d: seq %d", i, got.Seq)
		}
		res, ok := ref.Step(v)
		if got.Ready != ok {
			t.Fatalf("step %d: ready %v, want %v", i, got.Ready, ok)
		}
		if !ok {
			continue
		}
		if got.Score != res.Score {
			t.Fatalf("step %d: score %v, want %v (must be bit-identical)", i, got.Score, res.Score)
		}
		if got.Threshold != refTh.Threshold() || got.Alert != refTh.Alert(res.Score) {
			t.Fatalf("step %d: threshold/alert diverged", i)
		}
	}
}

// TestConcurrentStreamsBitIdentical drives 24 streams from 24 goroutines
// through one registry and asserts every stream's scores match a serial
// reference run exactly — the sharded, batched path must not perturb
// per-stream state. Run with -race.
func TestConcurrentStreamsBitIdentical(t *testing.T) {
	const streams, n = 24, 150
	r := newHistRegistry(t, ingest.Config{Shards: 4, QueueDepth: 8})
	var wg sync.WaitGroup
	results := make([][]ingest.Result, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("dev-%d", s)
			results[s] = make([]ingest.Result, n)
			for i := 0; i < n; i++ {
				res, err := r.Observe(id, vec(s, i))
				if err != nil {
					t.Errorf("stream %d step %d: %v", s, i, err)
					return
				}
				results[s][i] = res
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for s := 0; s < streams; s++ {
		ref := &histDetector{warm: 2}
		for i := 0; i < n; i++ {
			got := results[s][i]
			if got.Seq != uint64(i) {
				t.Fatalf("stream %d: non-monotonic seq %d at step %d", s, got.Seq, i)
			}
			res, ok := ref.Step(vec(s, i))
			if got.Ready != ok || (ok && got.Score != res.Score) {
				t.Fatalf("stream %d step %d: score %v/%v, want %v/%v", s, i, got.Ready, got.Score, ok, res.Score)
			}
		}
	}
}

// TestSharedStreamSeqPermutation hammers a few streams from many
// producers at once: per-stream sequence numbers must come out as a
// permutation of 0..N-1 (no duplicates, no losses) even under heavy
// admission contention.
func TestSharedStreamSeqPermutation(t *testing.T) {
	const streams, producers, perProducer = 4, 6, 40
	r := newHistRegistry(t, ingest.Config{Shards: 2, QueueDepth: 4})
	var mu sync.Mutex
	seqs := make(map[string][]uint64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := fmt.Sprintf("shared-%d", (p+i)%streams)
				res, err := r.Observe(id, vec(p, i))
				if err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				mu.Lock()
				seqs[id] = append(seqs[id], res.Seq)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	total := 0
	for id, got := range seqs {
		seen := make(map[uint64]bool, len(got))
		for _, q := range got {
			if seen[q] {
				t.Fatalf("stream %s: duplicate seq %d", id, q)
			}
			seen[q] = true
		}
		for q := 0; q < len(got); q++ {
			if !seen[uint64(q)] {
				t.Fatalf("stream %s: missing seq %d in %d results", id, q, len(got))
			}
		}
		total += len(got)
	}
	if total != producers*perProducer {
		t.Fatalf("lost results: %d of %d", total, producers*perProducer)
	}
}

// TestShedPolicy saturates a depth-1 queue behind a gated detector and
// expects admission to fail fast with ErrOverload.
func TestShedPolicy(t *testing.T) {
	gate := &gateDetector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := newHistRegistry(t, ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return gate, nil },
		QueueDepth:  1,
		Overload:    ingest.Shed,
	})
	a1, err := r.Enqueue("hot", vec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // dispatcher holds vector 0 inside Step; queue is empty
	a2, err := r.Enqueue("hot", vec(0, 1))
	if err != nil {
		t.Fatal(err) // fills the queue to its bound
	}
	if _, err := r.Enqueue("hot", vec(0, 2)); !errors.Is(err, ingest.ErrOverload) {
		t.Fatalf("saturated enqueue = %v, want ErrOverload", err)
	}
	if r.RetryAfter() <= 0 {
		t.Fatal("no Retry-After hint")
	}
	close(gate.release)
	r1, r2 := <-a1.Done, <-a2.Done
	if r1.Seq != 0 || r2.Seq != 1 || !r1.Ready || !r2.Ready {
		t.Fatalf("survivors = %+v, %+v", r1, r2)
	}
	if got := r.Stats().ShedTotal; got != 1 {
		t.Fatalf("ShedTotal = %d, want 1", got)
	}
}

// TestDropOldest: a full queue discards its oldest waiter, which gets a
// Dropped result; newer vectors keep flowing with monotonic sequence
// numbers.
func TestDropOldest(t *testing.T) {
	gate := &gateDetector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := newHistRegistry(t, ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return gate, nil },
		QueueDepth:  2,
		Overload:    ingest.DropOldest,
	})
	a0, err := r.Enqueue("hot", vec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // vector 0 is mid-Step; the queue is free again
	var acks []ingest.Ack
	for i := 1; i <= 3; i++ { // 1 and 2 fill the queue; 3 evicts 1
		a, err := r.Enqueue("hot", vec(0, i))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, a)
	}
	dropped := <-acks[0].Done
	if !dropped.Dropped || dropped.Seq != 1 {
		t.Fatalf("oldest waiter = %+v, want Dropped seq 1", dropped)
	}
	close(gate.release)
	for i, a := range []ingest.Ack{a0, acks[1], acks[2]} {
		res := <-a.Done
		if res.Dropped || !res.Ready {
			t.Fatalf("survivor %d = %+v", i, res)
		}
	}
	st := r.Stats()
	if st.DroppedTotal != 1 || st.ShedTotal != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatchCoalescing: vectors queued while the dispatcher is inside one
// detector pass must drain as a single follow-up batch, visible in the
// batch-size histogram.
func TestBatchCoalescing(t *testing.T) {
	gate := &gateDetector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := newHistRegistry(t, ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return gate, nil },
		QueueDepth:  64,
	})
	first, err := r.Enqueue("s", vec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	var acks []ingest.Ack
	for i := 1; i <= 10; i++ {
		a, err := r.Enqueue("s", vec(0, i))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, a)
	}
	close(gate.release)
	<-first.Done
	for _, a := range acks {
		<-a.Done
	}
	st := r.Stats()
	if n := st.BatchSize.Count(); n != 2 || st.BatchSize.Sum != 11 {
		t.Fatalf("batches = %d (sum %d), want the 10 queued vectors coalesced into one pass after the first", n, st.BatchSize.Sum)
	}
}

func TestStreamLimit(t *testing.T) {
	r := newHistRegistry(t, ingest.Config{MaxStreams: 2})
	for i := 0; i < 2; i++ {
		if _, err := r.Observe(fmt.Sprintf("s%d", i), vec(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Observe("s2", vec(2, 0)); err == nil {
		t.Fatal("third stream admitted past MaxStreams=2")
	}
}

// knnConfig is a cheap real detector with full checkpoint support, for
// the eviction tests.
func knnConfig() streamad.Config {
	return streamad.Config{
		Model: streamad.ModelKNN, Task1: streamad.TaskSlidingWindow,
		Task2: streamad.TaskRegular, Score: streamad.ScoreAverage,
		Channels: 2, Window: 8, TrainSize: 20, WarmupVectors: 30, Seed: 3,
	}
}

// TestEvictIdleRestoresFromStore: an idle stream is checkpointed and
// unloaded; its next observe transparently restores it, and the scores
// continue bit-identically with an uninterrupted reference run.
func TestEvictIdleRestoresFromStore(t *testing.T) {
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return streamad.New(knnConfig()) },
		NewThresholder: func(string) score.Thresholder {
			return score.NewQuantileThresholder(0.95)
		},
		Store:     store,
		StreamTTL: time.Hour, // the background evictor never fires; EvictIdle is driven by hand
	}
	r := newHistRegistry(t, cfg)
	refDet, err := streamad.New(knnConfig())
	if err != nil {
		t.Fatal(err)
	}
	refTh := score.NewQuantileThresholder(0.95)
	check := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			v := vec(0, i)
			got, err := r.Observe("dev", v)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != uint64(i) {
				t.Fatalf("step %d: seq %d (sequence must survive eviction)", i, got.Seq)
			}
			res, ok := refDet.Step(v)
			if got.Ready != ok || (ok && got.Score != res.Score) {
				t.Fatalf("step %d: score %v/%v, want %v/%v", i, got.Ready, got.Score, ok, res.Score)
			}
			if ok {
				refTh.Alert(res.Score)
			}
		}
	}
	check(0, 60)

	r.WaitIdle("dev")
	if n := r.EvictIdle(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1", n)
	}
	if infos := r.Streams(); len(infos) != 0 {
		t.Fatalf("stream still resident after eviction: %+v", infos)
	}
	if st := r.Stats(); st.EvictedTotal != 1 || st.Streams != 0 {
		t.Fatalf("stats after eviction = %+v", st)
	}

	check(60, 120) // transparently restored, bit-identical continuation
	if st := r.Stats(); st.StreamsTotal != 2 {
		t.Fatalf("StreamsTotal = %d, want 2 (created, evicted, recreated)", st.StreamsTotal)
	}
}

// TestEvictIdleWithoutStoreDiscards: without a store, eviction unloads
// the stream and frees its MaxStreams slot; the next observe starts a
// fresh detector at sequence zero.
func TestEvictIdleWithoutStoreDiscards(t *testing.T) {
	r := newHistRegistry(t, ingest.Config{MaxStreams: 1, StreamTTL: time.Hour})
	if _, err := r.Observe("a", vec(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Observe("b", vec(0, 0)); err == nil {
		t.Fatal("MaxStreams=1 admitted a second stream")
	}
	r.WaitIdle("a")
	if n := r.EvictIdle(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1", n)
	}
	res, err := r.Observe("b", vec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 0 {
		t.Fatalf("fresh stream seq = %d", res.Seq)
	}
}

// TestEvictIdleSkipsBusyStreams: a stream with a vector mid-pass (or
// queued) must not be evicted out from under its dispatcher.
func TestEvictIdleSkipsBusyStreams(t *testing.T) {
	gate := &gateDetector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := newHistRegistry(t, ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return gate, nil },
		StreamTTL:   time.Hour,
	})
	a, err := r.Enqueue("busy", vec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	if n := r.EvictIdle(time.Now().Add(2 * time.Hour)); n != 0 {
		t.Fatalf("evicted %d busy stream(s)", n)
	}
	close(gate.release)
	if res := <-a.Done; !res.Ready {
		t.Fatalf("busy stream's vector lost: %+v", res)
	}
}
