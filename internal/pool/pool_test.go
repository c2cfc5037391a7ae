package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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
		if e != nil {
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
