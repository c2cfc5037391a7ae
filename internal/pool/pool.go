// Package pool provides the bounded worker pool behind the serving
// stack's goroutine economy. Before it existed, concurrency scaled with
// the fleet: every ensemble member owned a persistent goroutine and
// every async fine-tune spawned a fresh trainer — at a million streams
// that is tens of millions of goroutines. The pool inverts the model:
// a fixed worker count scales with the machine and streams become
// passive tasks scheduled onto it.
//
// One type serves both jobs. The scoring pool (GOMAXPROCS workers)
// runs the ingest dispatchers' per-stream batch drains, fire-and-forget.
// The trainer pool (K workers) runs asynchronous fine-tunes, which the
// submitter may take back while they are still queued: such a task
// carries a claim word the caller owns, and Cancel and the worker that
// pops the task race for it.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Claim states: a cancelable task is queued until a worker claims it
// or its submitter cancels it, whichever swaps the word first.
const (
	stateQueued int32 = iota
	stateClaimed
	stateCanceled
)

// task is one queue entry; claim is nil for a task that cannot be
// canceled.
type task struct {
	run   func()
	claim *atomic.Int32
}

// Pool is a bounded set of workers draining an unbounded FIFO task
// queue. The zero value is not usable; call New.
type Pool struct {
	mu   sync.Mutex
	cond sync.Cond
	// queue[head:] are the waiting tasks. Popped slots are cleared. When
	// the array is full and at least half of it is popped slots, Submit
	// slides the live tasks down instead of growing it: the backing array
	// is reused, at most twice the longest queue, and each slide moves no
	// more tasks than were popped since the last one.
	queue   []task
	head    int
	closed  bool
	workers int
	wg      sync.WaitGroup

	queued    atomic.Int64 // tasks waiting in the FIFO, canceled ones excluded
	running   atomic.Int64 // tasks being executed by workers
	completed atomic.Uint64
	canceled  atomic.Uint64
}

// New starts a pool with the given worker count (<= 0 selects
// GOMAXPROCS).
//
//streamad:lifecycle — owns the worker goroutines; Close joins them.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond.L = &p.mu
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the fixed worker count.
func (p *Pool) Workers() int { return p.workers }

// worker drains the FIFO until Close, dropping canceled tasks.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.head == len(p.queue) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.queue) {
			p.mu.Unlock()
			return
		}
		t := p.queue[p.head]
		// The backing array outlives the pop: a slot left set would keep
		// a finished task, and the stream it captured, reachable.
		p.queue[p.head] = task{}
		p.head++
		p.mu.Unlock()
		if t.claim != nil && !t.claim.CompareAndSwap(stateQueued, stateClaimed) {
			continue // canceled while queued; Cancel did the counting
		}
		p.queued.Add(-1)
		p.running.Add(1)
		t.run()
		p.running.Add(-1)
		p.completed.Add(1)
	}
}

// Submit enqueues run. Tasks start in submission order, though they
// finish in an order that depends on their durations. A non-nil claim
// makes the task cancelable: it must read zero, and it belongs to this
// task until the task runs or Cancel takes it back. Submitting to a
// closed pool runs the task inline, so no work is silently lost during
// shutdown.
func (p *Pool) Submit(run func(), claim *atomic.Int32) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if claim != nil {
			claim.Store(stateClaimed)
		}
		run()
		return
	}
	if len(p.queue) == cap(p.queue) && 2*p.head >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, task{run, claim})
	p.queued.Add(1)
	p.mu.Unlock()
	p.cond.Signal()
}

// Cancel takes back the task submitted with claim. It reports true when
// it won the race against the task's start: the task will never run
// here and the caller owns its work. False means a worker has claimed
// (or finished) it, or it was canceled before.
func (p *Pool) Cancel(claim *atomic.Int32) bool {
	if !claim.CompareAndSwap(stateQueued, stateCanceled) {
		return false
	}
	// The queue entry stays until a worker pops and drops it, which
	// keeps Cancel O(1) and off the lock.
	p.queued.Add(-1)
	p.canceled.Add(1)
	return true
}

// Stats is a point-in-time snapshot of pool load, for the
// streamad_pool_* metric families.
type Stats struct {
	Workers   int
	Queued    int64
	Running   int64
	Completed uint64
	Canceled  uint64
}

// Stats snapshots the pool counters; safe from any goroutine.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:   p.workers,
		Queued:    p.queued.Load(),
		Running:   p.running.Load(),
		Completed: p.completed.Load(),
		Canceled:  p.canceled.Load(),
	}
}

// Close stops the workers after the queue drains (running every task
// not canceled) and joins them. Safe to call twice; Submit after Close
// runs tasks on the caller.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
