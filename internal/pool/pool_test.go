package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitRunsEverything(t *testing.T) {
	p := NewScoring(3)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Submit(func() {
			n.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", n.Load())
	}
}

func TestRunJoinsAllTasks(t *testing.T) {
	p := NewScoring(2)
	defer p.Close()
	for round := 0; round < 50; round++ {
		var n atomic.Int64
		fns := make([]func(), 7)
		for i := range fns {
			fns[i] = func() { n.Add(1) }
		}
		p.Run(fns...)
		if n.Load() != 7 {
			t.Fatalf("round %d: Run returned with %d of 7 tasks done", round, n.Load())
		}
	}
}

// TestRunFromInsideWorker is the deadlock regression: a Run issued from
// a pool task, with every worker busy on such tasks, must still finish
// because the caller helps itself to unclaimed work.
func TestRunFromInsideWorker(t *testing.T) {
	p := NewScoring(2)
	defer p.Close()
	var done sync.WaitGroup
	var n atomic.Int64
	for i := 0; i < 8; i++ {
		done.Add(1)
		p.Submit(func() {
			defer done.Done()
			p.Run(
				func() { n.Add(1) },
				func() { n.Add(1) },
				func() { n.Add(1) },
			)
		})
	}
	ch := make(chan struct{})
	go func() { done.Wait(); close(ch) }() //nolint — test helper, joined below
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Run deadlocked")
	}
	if n.Load() != 24 {
		t.Fatalf("ran %d of 24 nested tasks", n.Load())
	}
}

// saturate parks one blocking task on every worker and returns once all
// of them are running; release lets them go.
func saturate(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	for i := 0; i < p.Workers(); i++ {
		p.Submit(func() { <-gate })
	}
	for p.Stats().Running < int64(p.Workers()) {
		runtime.Gosched()
	}
	return func() { close(gate) }
}

// TestRunInlineWhenSaturated: with every worker busy Run must not
// publish (the old help-first path left its wrappers queued behind the
// busy workers), must not allocate, and must run the tasks in order.
func TestRunInlineWhenSaturated(t *testing.T) {
	p := NewScoring(2)
	defer p.Close()
	release := saturate(t, p)
	defer release()
	var order []int
	fns := []func(){
		func() { order = append(order, 0) },
		func() { order = append(order, 1) },
		func() { order = append(order, 2) },
	}
	p.Run(fns...)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("saturated Run ran tasks as %v, want [0 1 2] on the caller", order)
	}
	if st := p.Stats(); st.Queued != 0 || st.Completed != 0 {
		t.Fatalf("saturated Run touched the queue: %+v", st)
	}
	n := 0
	count := []func(){func() { n++ }, func() { n++ }}
	if allocs := testing.AllocsPerRun(100, func() { p.Run(count...) }); allocs != 0 {
		t.Fatalf("saturated Run allocates %.1f objects per call, want 0", allocs)
	}
	if st := p.Stats(); st.Queued != 0 || st.Completed != 0 {
		t.Fatalf("saturated Run touched the queue: %+v", st)
	}
}

// TestRunForksWhenIdle: two tasks that each wait for the other to start
// can only finish on two goroutines, so an idle pool must still fork.
func TestRunForksWhenIdle(t *testing.T) {
	p := NewScoring(2)
	defer p.Close()
	for round := 0; round < 20; round++ {
		aStarted, bStarted := make(chan struct{}), make(chan struct{})
		done := make(chan struct{})
		go func() { //nolint — test helper, joined below
			defer close(done)
			p.Run(
				func() { close(aStarted); <-bStarted },
				func() { close(bStarted); <-aStarted },
			)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run on an idle pool ran its tasks on one goroutine")
		}
	}
}

// TestLostClaimIsNotCompleted: an entry whose task the Run caller
// claimed first is dropped by the worker that pops it — not run, and not
// counted as a completed task.
func TestLostClaimIsNotCompleted(t *testing.T) {
	p := NewScoring(1)
	ran := false
	task := &runTask{fn: func() { ran = true }, done: make(chan struct{})}
	if !task.claim() {
		t.Fatal("fresh task must be claimable")
	}
	p.mu.Lock()
	p.queue = append(p.queue, entry{task: task})
	p.queued.Add(1)
	p.mu.Unlock()
	p.cond.Signal()
	p.Close() // drains the queue
	if st := p.Stats(); ran || st.Queued != 0 || st.Completed != 0 {
		t.Fatalf("lost-claim entry: ran=%v, stats %+v; want dropped and uncounted", ran, st)
	}
}

// TestWorkerPopClearsSlot: the popped entry must not stay reachable from
// the queue's backing array.
func TestWorkerPopClearsSlot(t *testing.T) {
	p := NewScoring(1)
	release := saturate(t, p)
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		p.Submit(func() { wg.Done() })
	}
	p.mu.Lock()
	backing := p.queue[:len(p.queue):len(p.queue)]
	p.mu.Unlock()
	release()
	wg.Wait()
	p.Close()
	for i, e := range backing {
		if e.fn != nil || e.task != nil {
			t.Fatalf("slot %d of the queue's backing array still holds its popped entry", i)
		}
	}
}

func TestPoolCloseIdempotentAndInlineAfter(t *testing.T) {
	p := NewScoring(1)
	p.Close()
	p.Close()
	ran := false
	p.Submit(func() { ran = true })
	if !ran {
		t.Fatal("Submit after Close must run inline")
	}
	n := 0
	p.Run(func() { n++ }, func() { n++ })
	if n != 2 {
		t.Fatal("Run after Close must run inline")
	}
}

func TestPoolGoroutineCountBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewScoring(4)
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		p.Submit(func() { wg.Done() })
	}
	wg.Wait()
	during := runtime.NumGoroutine()
	if during > before+4+2 {
		t.Fatalf("goroutines grew with task count: %d -> %d", before, during)
	}
	p.Close()
}

func TestTrainerRunsAndCounts(t *testing.T) {
	tr := NewTrainer(2)
	defer tr.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		tr.Submit("s", func() {
			n.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if n.Load() != 20 {
		t.Fatalf("ran %d of 20 jobs", n.Load())
	}
	tr.Close() // a slot counts a job only after it returns: join before reading
	st := tr.Stats()
	if st.Completed != 20 || st.Slots != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTrainerFairness floods the queue from one noisy stream and one
// quiet one with a single busy slot: the quiet stream's lone job must
// not wait behind the noisy stream's whole backlog.
func TestTrainerFairness(t *testing.T) {
	tr := NewTrainer(1)
	defer tr.Close()
	gate := make(chan struct{})
	started := make(chan string, 64)
	tr.Submit("noisy", func() { <-gate }) // occupies the slot
	for i := 0; i < 10; i++ {
		tr.Submit("noisy", func() { started <- "noisy" })
	}
	tr.Submit("quiet", func() { started <- "quiet" })
	close(gate)
	first := <-started
	if first != "quiet" {
		t.Fatalf("first dequeued stream = %q, want the least-recently-served %q", first, "quiet")
	}
}

func TestTrainerCancel(t *testing.T) {
	tr := NewTrainer(1)
	gate := make(chan struct{})
	tr.Submit("a", func() { <-gate }) // hold the slot so the next job stays queued
	ran := make(chan struct{})
	cancel := tr.Submit("b", func() { close(ran) })
	if !cancel() {
		t.Fatal("cancel of a queued job must win")
	}
	if cancel() {
		t.Fatal("second cancel must report false")
	}
	close(gate)
	tr.Close()
	select {
	case <-ran:
		t.Fatal("canceled job ran anyway")
	default:
	}
	if got := tr.Stats().Canceled; got != 1 {
		t.Fatalf("canceled count = %d, want 1", got)
	}
}
