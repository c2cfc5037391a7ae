package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSubmitRunsEverything(t *testing.T) {
	p := New(3)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Submit(func() {
			n.Add(1)
			wg.Done()
		}, nil)
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
		p.Submit(func() { <-gate }, nil)
	}
	for p.Stats().Running < int64(p.Workers()) {
		runtime.Gosched()
	}
	return func() { close(gate) }
}

// TestWorkerPopClearsSlot: the popped entry must not stay reachable from
// the queue's backing array.
func TestWorkerPopClearsSlot(t *testing.T) {
	p := New(1)
	release := saturate(t, p)
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		p.Submit(func() { wg.Done() }, nil)
	}
	p.mu.Lock()
	backing := p.queue[:len(p.queue):len(p.queue)]
	p.mu.Unlock()
	release()
	wg.Wait()
	p.Close()
	for i, e := range backing {
		if e.run != nil {
			t.Fatalf("slot %d of the queue's backing array still holds its popped entry", i)
		}
	}
}

// TestQueueStaysBoundedUnderLoad: a queue that never empties still reuses
// its backing array, whose capacity follows the longest queue rather than
// the number of tasks that passed through.
func TestQueueStaysBoundedUnderLoad(t *testing.T) {
	p := New(1)
	defer p.Close()
	step := make(chan struct{})
	fn := func() { <-step }
	for i := 0; i < 4; i++ {
		p.Submit(fn, nil)
	}
	for i := 0; i < 1000; i++ {
		step <- struct{}{} // one task finishes,
		p.Submit(fn, nil)  // one joins: at most four wait at any time
	}
	p.mu.Lock()
	c := cap(p.queue)
	p.mu.Unlock()
	close(step)
	if c > 8 {
		t.Fatalf("queue capacity %d after 1,004 tasks, never more than 4 waiting", c)
	}
}

// TestSlideClearsVacatedSlots: sliding the waiting tasks down to the
// front of the array must not leave copies of them in the slots they
// vacated, where they would stay reachable after they run.
func TestSlideClearsVacatedSlots(t *testing.T) {
	p := New(1)
	started := make(chan int, 6)
	gates := make([]chan struct{}, 6)
	submit := func(i int) {
		gates[i] = make(chan struct{})
		p.Submit(func() { started <- i; <-gates[i] }, nil)
	}
	submit(0)
	<-started // the worker holds 0; 1–4 fill the array
	for i := 1; i <= 4; i++ {
		submit(i)
	}
	for i := 0; i < 2; i++ {
		close(gates[i])
		<-started // 1, then 2, popped: half the array is popped slots
	}
	submit(5) // finds the array full and slides 3 and 4 down
	p.mu.Lock()
	head, vacated := p.head, p.queue[len(p.queue):cap(p.queue)]
	p.mu.Unlock()
	for i := 2; i < len(gates); i++ {
		close(gates[i])
	}
	p.Close()
	if head != 0 {
		t.Fatalf("head = %d after the submit, want a slide", head)
	}
	for i, e := range vacated {
		if e.run != nil {
			t.Fatalf("vacated slot %d still holds a task", i)
		}
	}
}

func TestPoolCloseIdempotentAndInlineAfter(t *testing.T) {
	p := New(1)
	p.Close()
	p.Close()
	ran := false
	p.Submit(func() { ran = true }, nil)
	if !ran {
		t.Fatal("Submit after Close must run inline")
	}
}

func TestPoolGoroutineCountBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		p.Submit(func() { wg.Done() }, nil)
	}
	wg.Wait()
	during := runtime.NumGoroutine()
	if during > before+4+2 {
		t.Fatalf("goroutines grew with task count: %d -> %d", before, during)
	}
	p.Close()
}

func TestTrainerRunsAndCounts(t *testing.T) {
	tr := New(2)
	defer tr.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		tr.Submit(func() {
			n.Add(1)
			wg.Done()
		}, nil)
	}
	wg.Wait()
	if n.Load() != 20 {
		t.Fatalf("ran %d of 20 jobs", n.Load())
	}
	tr.Close() // a slot counts a job only after it returns: join before reading
	st := tr.Stats()
	if st.Completed != 20 || st.Workers != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrainerCancel(t *testing.T) {
	tr := New(1)
	gate := make(chan struct{})
	tr.Submit(func() { <-gate }, nil) // hold the slot so the next job stays queued
	ran := make(chan struct{})
	var claim atomic.Int32
	tr.Submit(func() { close(ran) }, &claim)
	if !tr.Cancel(&claim) {
		t.Fatal("cancel of a queued job must win")
	}
	if tr.Cancel(&claim) {
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

// TestPoolCancelRace: every cancelable task is raced by its cancel while
// the workers pull from the queue. Exactly one side wins each race: a
// cancel that wins means the task never runs, one that loses means it
// runs. After Close every submission is accounted for, run or canceled.
func TestPoolCancelRace(t *testing.T) {
	const submitters, each = 4, 500
	tr := New(3)
	var ran [submitters * each]atomic.Bool
	var won [submitters * each]bool
	var claims [submitters * each]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * each; i < (g+1)*each; i++ {
				i := i
				tr.Submit(func() { ran[i].Store(true) }, &claims[i])
				if i%3 == 0 {
					runtime.Gosched()
				}
				won[i] = tr.Cancel(&claims[i])
				if tr.Cancel(&claims[i]) {
					t.Errorf("task %d: a second cancel won", i)
				}
			}
		}(g)
	}
	wg.Wait()
	tr.Close()
	var canceled uint64
	for i := range won {
		if won[i] == ran[i].Load() {
			t.Fatalf("task %d: cancel won = %v and ran = %v; exactly one side must win", i, won[i], ran[i].Load())
		}
		if won[i] {
			canceled++
		}
	}
	st := tr.Stats()
	if st.Completed+st.Canceled != submitters*each || st.Canceled != canceled || st.Queued != 0 {
		t.Fatalf("after Close: %+v, %d cancels won, %d submitted", st, canceled, submitters*each)
	}
}

// TestSubmitRoundTripAllocs: handing a task to a scoring worker and
// getting it back allocates nothing; the queue reuses its backing array.
func TestSubmitRoundTripAllocs(t *testing.T) {
	p := New(1)
	defer p.Close()
	done := make(chan struct{}, 1)
	fn := func() { done <- struct{}{} }
	allocs := testing.AllocsPerRun(200, func() {
		p.Submit(fn, nil)
		<-done
	})
	if allocs != 0 {
		t.Fatalf("a Submit round trip allocates %.1f objects, want 0", allocs)
	}
}
