package ingest_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"streamad"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// newPagerRegistry builds a registry whose streams run real (small)
// streamad detectors — required by the tiering tests because the stub
// detectors don't implement core.Pager.
func newPagerRegistry(t *testing.T, cfg ingest.Config) (*ingest.Registry, *persist.Store) {
	t.Helper()
	store, err := persist.Open(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg.Store = store
	if cfg.NewDetector == nil {
		cfg.NewDetector = func(string) (ingest.Stepper, error) {
			return streamad.New(pagerDetCfg())
		}
	}
	if cfg.WarmAfter == 0 {
		cfg.WarmAfter = 50 * time.Millisecond
	}
	r, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, store
}

func pagerDetCfg() streamad.Config {
	return streamad.Config{
		Model: streamad.ModelARIMA, Task1: streamad.TaskSlidingWindow,
		Task2: streamad.TaskMuSigma, Score: streamad.ScoreRaw,
		Channels: 2, Window: 8, TrainSize: 8, WarmupVectors: 8,
	}
}

// ladderDetectors are the detector shapes the ladder tests demote and
// evict: the pagerDetCfg pipeline alone, and the same pipeline as the
// heavy member of a cascade that is screening well before the 40th
// vector — so its page is the heavy member's while the gate ring and the
// calibration window stay resident.
var ladderDetectors = []struct {
	name  string
	build func() (streamad.StreamDetector, error)
}{
	{"arima", func() (streamad.StreamDetector, error) { return streamad.New(pagerDetCfg()) }},
	{"cascade", func() (streamad.StreamDetector, error) {
		return streamad.NewFromSpec("cascade(zscore, arima+sw+musigma+raw; admit=0.2, calib=16, gatewin=8)", pagerDetCfg())
	}},
}

// TestWarmPageOutBitIdentical: observe, force a warm demotion, observe
// more; every score must equal the serial reference detector's.
func TestWarmPageOutBitIdentical(t *testing.T) {
	for _, ld := range ladderDetectors {
		t.Run(ld.name, func(t *testing.T) { testWarmPageOutBitIdentical(t, ld.build) })
	}
}

func testWarmPageOutBitIdentical(t *testing.T, build func() (streamad.StreamDetector, error)) {
	r, store := newPagerRegistry(t, ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) { return build() },
	})
	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	step := func(i int) {
		v := vec(3, i)
		got, err := r.Observe("s", v)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := ref.Step(v)
		if got.Ready != wantOK {
			t.Fatalf("step %d: ready %v, want %v", i, got.Ready, wantOK)
		}
		if wantOK && got.Score != want.Score {
			t.Fatalf("step %d: score %v, want %v (must be bit-identical across paging)", i, got.Score, want.Score)
		}
	}
	for i := 0; i < 40; i++ {
		step(i)
	}
	// Far-future "now" forces the idle check regardless of WarmAfter.
	if n := r.PageIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("PageIdle demoted %d streams, want 1", n)
	}
	st := r.Stats()
	if st.WarmStreams != 1 || st.HotStreams != 0 || st.HotToWarm != 1 {
		t.Fatalf("after demotion: hot=%d warm=%d hot→warm=%d", st.HotStreams, st.WarmStreams, st.HotToWarm)
	}
	if _, err := store.ReadPage("s"); err != nil {
		t.Fatalf("no page after demotion: %v", err)
	}
	if st.SwapBytes == 0 || st.SwapBytes%4096 != 0 {
		t.Fatalf("swap file holds %d bytes with one stream warm", st.SwapBytes)
	}
	// The demotion moved the window and nothing else: no checkpoint was
	// written, the WAL still holds every vector.
	if _, err := store.ReadSnapshot("s"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("demotion wrote a snapshot (err %v)", err)
	}
	if recs, err := store.ReadWAL("s"); err != nil || len(recs) != 40 {
		t.Fatalf("WAL holds %d records after demotion (err %v), want 40", len(recs), err)
	}
	for i := 40; i < 80; i++ {
		step(i)
	}
	st = r.Stats()
	if st.WarmStreams != 0 || st.HotStreams != 1 || st.WarmToHot != 1 || st.SwapBytes != 0 {
		t.Fatalf("after promotion: hot=%d warm=%d warm→hot=%d swap=%d", st.HotStreams, st.WarmStreams, st.WarmToHot, st.SwapBytes)
	}
	if _, ok := r.StreamStats("s"); !ok {
		t.Fatal("stream vanished")
	}
}

// TestWarmPageInFallsBackToSnapshot: a damaged page must not lose the
// stream, nor one vector of it. A demotion checkpoints nothing, so the
// stream behind the page has a dirty WAL: the fallback is snapshot + WAL
// replay — or, for a stream never checkpointed, a fresh detector and the
// whole WAL — and every later score, seq and alert count must match an
// uninterrupted run.
func TestWarmPageInFallsBackToSnapshot(t *testing.T) {
	for _, snapAt := range []int{25, -1} { // vectors before the one checkpoint; -1 = never
		r, store := newPagerRegistry(t, ingest.Config{Logf: t.Logf})
		ref, err := streamad.New(pagerDetCfg())
		if err != nil {
			t.Fatal(err)
		}
		refTh, refAlerts := score.NewQuantileThresholder(0.99), 0
		step := func(i int) {
			v := vec(4, i)
			got, err := r.Observe("s", v)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref.Step(v)
			if wantOK && refTh.Alert(want.Score) {
				refAlerts++
			}
			if got.Seq != uint64(i) || got.Ready != wantOK || (wantOK && got.Score != want.Score) {
				t.Fatalf("snapshot at %d, step %d: got %+v, want seq %d %v/%v", snapAt, i, got, i, want.Score, wantOK)
			}
		}
		for i := 0; i < 40; i++ {
			if i == snapAt {
				if _, err := r.Snapshot("s"); err != nil {
					t.Fatal(err)
				}
			}
			step(i)
		}
		if n := r.PageIdle(time.Now().Add(time.Hour)); n != 1 {
			t.Fatalf("PageIdle demoted %d streams, want 1", n)
		}
		if recs, _ := store.ReadWAL("s"); len(recs) == 0 {
			t.Fatal("the demoted stream's WAL is clean: the fallback has nothing to replay")
		}
		// Damage the slot in place: zero the swap file under the index.
		swap := filepath.Join(store.Dir(), "pages.swap")
		info, err := os.Stat(swap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(swap, make([]byte, info.Size()), 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 40; i < 60; i++ {
			step(i)
		}
		st := r.Stats()
		if st.WarmToHot != 1 || st.ColdToHot != 0 || st.SwapBytes != 0 {
			t.Fatalf("after the rebuild: warm→hot=%d cold→hot=%d swap=%d", st.WarmToHot, st.ColdToHot, st.SwapBytes)
		}
		if info, _ := r.StreamStats("s"); info.Steps != 60 || info.Alerts != refAlerts {
			t.Fatalf("after the rebuild: steps=%d alerts=%d, want 60/%d", info.Steps, info.Alerts, refAlerts)
		}
	}
}

// TestConcurrentObservesSingleRestore: many goroutines observing a warm
// stream must trigger exactly one page-in, keep exactly one stream
// object installed, and stay bit-identical to the serial reference.
func TestConcurrentObservesSingleRestore(t *testing.T) {
	r, _ := newPagerRegistry(t, ingest.Config{})
	ref, err := streamad.New(pagerDetCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		v := vec(5, i)
		if _, err := r.Observe("s", v); err != nil {
			t.Fatal(err)
		}
		ref.Step(v)
	}
	for round := 0; round < 5; round++ {
		if n := r.PageIdle(time.Now().Add(time.Hour)); n != 1 {
			t.Fatalf("round %d: PageIdle demoted %d, want 1", round, n)
		}
		const burst = 16
		base := 40 + round*burst
		results := make([]ingest.Result, burst)
		vecs := make([][]float64, burst) // indexed by assigned seq - base
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				v := vec(5, base+j)
				res, err := r.Observe("s", v)
				if err != nil {
					t.Error(err)
					return
				}
				results[res.Seq-uint64(base)] = res
				vecs[res.Seq-uint64(base)] = v
			}(j)
		}
		wg.Wait()
		// Concurrent admissions take sequence numbers in arrival order;
		// the dispatcher then scores in that order, so the reference
		// replays the vectors by assigned seq.
		for j := 0; j < burst; j++ {
			want, wantOK := ref.Step(vecs[j])
			got := results[j]
			if got.Ready != wantOK || (wantOK && got.Score != want.Score) {
				t.Fatalf("round %d seq %d: got %+v, want %v/%v", round, base+j, got, want.Score, wantOK)
			}
		}
		st := r.Stats()
		if st.WarmToHot != uint64(round+1) {
			t.Fatalf("round %d: warm→hot = %d, want exactly %d (single restore per burst)", round, st.WarmToHot, round+1)
		}
		if st.Streams != 1 {
			t.Fatalf("round %d: %d streams installed, want 1", round, st.Streams)
		}
	}
}

// TestEvictRestoreGoroutineStable: repeated evict→restore cycles must
// not leak goroutines — eviction closes the detector (draining trainer
// work), and the pooled dispatcher spawns nothing per stream.
func TestEvictRestoreGoroutineStable(t *testing.T) {
	cfg := pagerDetCfg()
	cfg.AsyncFineTune = true // exercise the trainer shutdown path too
	r, _ := newPagerRegistry(t, ingest.Config{
		StreamTTL: time.Hour, // manual eviction below
		NewDetector: func(string) (ingest.Stepper, error) {
			return streamad.New(cfg)
		},
	})
	warm := func(id string, n, off int) {
		for i := 0; i < n; i++ {
			if _, err := r.Observe(id, vec(6, off+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm("a", 30, 0)
	warm("b", 30, 0)
	runtime.GC()
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 20; cycle++ {
		if n := r.EvictIdle(time.Now().Add(2 * time.Hour)); n != 2 {
			t.Fatalf("cycle %d: evicted %d streams, want 2", cycle, n)
		}
		warm("a", 3, 30+3*cycle)
		warm("b", 3, 30+3*cycle)
	}
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d → %d across 20 evict/restore cycles", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := r.Stats()
	if st.EvictedTotal != 40 || st.ColdToHot != 40 {
		t.Fatalf("evicted=%d cold→hot=%d, want 40/40", st.EvictedTotal, st.ColdToHot)
	}
}

// TestWarmStreamColdEviction: a warm stream idle past the TTL falls off
// the ladder entirely — its deferred checkpoint written on the way, by
// the eviction pre-pass, without the ladder counting a visit to hot —
// and the next observe restores it from that snapshot.
func TestWarmStreamColdEviction(t *testing.T) {
	for _, ld := range ladderDetectors {
		t.Run(ld.name, func(t *testing.T) { testWarmStreamColdEviction(t, ld.build) })
	}
}

func testWarmStreamColdEviction(t *testing.T, build func() (streamad.StreamDetector, error)) {
	r, store := newPagerRegistry(t, ingest.Config{
		StreamTTL:   time.Hour,
		NewDetector: func(string) (ingest.Stepper, error) { return build() },
	})
	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		v := vec(7, i)
		if _, err := r.Observe("s", v); err != nil {
			t.Fatal(err)
		}
		ref.Step(v)
	}
	if n := r.PageIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatal("demotion failed")
	}
	if n := r.EvictIdle(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatal("cold eviction failed")
	}
	st := r.Stats()
	if st.Streams != 0 || st.WarmToCold != 1 || st.ColdStreams != 1 {
		t.Fatalf("after cold eviction: streams=%d warm→cold=%d cold=%d", st.Streams, st.WarmToCold, st.ColdStreams)
	}
	if st.WarmToHot != 0 || st.HotToCold != 0 || st.HotToWarm != 1 {
		t.Fatalf("the eviction-time checkpoint showed on the ladder: warm→hot=%d hot→cold=%d hot→warm=%d",
			st.WarmToHot, st.HotToCold, st.HotToWarm)
	}
	if _, err := store.ReadPage("s"); err == nil || st.SwapBytes != 0 {
		t.Fatalf("page survived cold eviction (swap %d bytes)", st.SwapBytes)
	}
	if snap, err := store.ReadSnapshot("s"); err != nil || snap.Seq != 40 {
		t.Fatalf("eviction left snapshot %+v, %v; want one at seq 40", snap, err)
	}
	if recs, err := store.ReadWAL("s"); err != nil || len(recs) != 0 {
		t.Fatalf("WAL holds %d records after the eviction checkpoint (err %v)", len(recs), err)
	}
	for i := 40; i < 60; i++ {
		v := vec(7, i)
		got, err := r.Observe("s", v)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := ref.Step(v)
		if got.Ready != wantOK || (wantOK && got.Score != want.Score) {
			t.Fatalf("step %d after cold restore: got %+v, want %v/%v", i, got, want.Score, wantOK)
		}
	}
}

// TestFleetWalksTheLadder walks a fleet around the residency ladder —
// register all, page all warm, drive the 1 % hot set, cold-evict the idle
// rest — and holds the four scale claims: goroutines are O(workers) not
// O(streams), residency collapses to the working set, every hot stream
// took the warm→hot path, and retained heap tracks residency rather
// than registrations. Sweeps use synthetic cutoffs anchored at phase
// marks, so the censuses do not depend on how long a sweep takes.
func TestFleetWalksTheLadder(t *testing.T) {
	const (
		fleet   = 2000
		hot     = fleet / 100
		workers = 2
		slots   = 2
		idle    = time.Hour // both horizons: only the anchored sweeps below move a stream
	)
	heap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	heapBase, goroutinesBase := heap(), runtime.NumGoroutine()

	sp := streamad.NewScoringPool(workers)
	defer sp.Close()
	tp := streamad.NewTrainerPool(slots)
	defer tp.Close()
	det := pagerDetCfg()
	det.AsyncFineTune, det.TrainerPool = true, tp
	r, _ := newPagerRegistry(t, ingest.Config{
		NewDetector: func(id string) (ingest.Stepper, error) {
			c := det
			c.TrainerKey = id
			return streamad.New(c)
		},
		Shards: 64, MaxStreams: fleet, WarmAfter: idle, StreamTTL: idle, ScorePool: sp,
	})
	// Registry internals (snapshotter, evictor) and the runtime's own
	// helpers are the slack; none of it scales with the fleet.
	checkGoroutines := func(when string) {
		if extra := runtime.NumGoroutine() - goroutinesBase; extra > workers+slots+8 {
			t.Errorf("%d goroutines above baseline %s (%d streams), want ≤ %d", extra, when, fleet, workers+slots+8)
		}
	}
	observe := func(i, from, to int) {
		for k := from; k < to; k++ {
			if _, err := r.Observe("fleet-"+strconv.Itoa(i), vec(i, k)); err != nil {
				t.Fatalf("stream %d vector %d: %v", i, k, err)
			}
		}
	}

	for i := 0; i < fleet; i++ {
		observe(i, 0, 3)
	}
	registered := time.Now()
	heapResident := heap() - heapBase
	checkGoroutines("with the whole fleet resident")
	if n := r.PageIdle(registered.Add(idle)); n != fleet {
		t.Fatalf("PageIdle demoted %d of %d streams", n, fleet)
	}
	steadyStart := time.Now()
	for i := 0; i < hot; i++ {
		observe(i, 3, 60)
	}
	if n := r.EvictIdle(steadyStart.Add(idle)); n != fleet-hot {
		t.Fatalf("EvictIdle sent %d streams cold, want %d", n, fleet-hot)
	}

	checkGoroutines("in steady state")
	st := r.Stats()
	if st.Streams > 2*hot+64 || st.HotStreams+st.WarmStreams != st.Streams {
		t.Errorf("steady residency: %d streams (hot %d + warm %d), want ≤ %d and hot + warm == resident",
			st.Streams, st.HotStreams, st.WarmStreams, 2*hot+64)
	}
	if st.WarmToHot < hot {
		t.Errorf("warm→hot = %d, want every one of the %d hot streams restored from its page", st.WarmToHot, hot)
	}
	if frac := (heap() - heapBase) / heapResident; frac > 0.8 {
		t.Errorf("steady heap is %.2f of the all-resident heap (%.1f MB), want ≤ 0.8", frac, heapResident/(1<<20))
	}
}
