// Package pool provides the bounded worker pools behind the serving
// stack's goroutine economy. Before it existed, concurrency scaled with
// the fleet: every ensemble member owned a persistent goroutine and
// every async fine-tune spawned a fresh trainer — at a million streams
// that is tens of millions of goroutines. The pools invert the model:
// a fixed worker count scales with the machine (GOMAXPROCS for scoring,
// K slots for training) and streams become passive tasks scheduled onto
// it.
//
// Two pools with different disciplines live here:
//
//   - Pool is the scoring pool: an unbounded FIFO of ready-to-run tasks
//     drained by N workers. Submit is fire-and-forget (the ingest
//     dispatcher's per-stream batch drains).
//
//   - Trainer is the fine-tune pool: K slots drained from a priority
//     queue ordered by least-recently-served stream, so one drift-storm
//     stream cannot starve the fleet's model updates. Work is submitted
//     as a closure that captures its own training snapshot at dequeue
//     time, so queued fine-tunes pin no deep copies.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of workers draining an unbounded FIFO task
// queue. The zero value is not usable; call NewScoring.
type Pool struct {
	mu      sync.Mutex
	cond    sync.Cond
	queue   []func()
	closed  bool
	workers int
	wg      sync.WaitGroup

	queued    atomic.Int64 // tasks waiting in the FIFO
	running   atomic.Int64 // tasks being executed by workers
	completed atomic.Uint64
}

// NewScoring starts a scoring pool with the given worker count
// (<= 0 selects GOMAXPROCS).
//
//streamad:lifecycle — owns the worker goroutines; Close joins them.
func NewScoring(workers int) *Pool {
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

// worker drains the FIFO until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		fn := p.queue[0]
		// The backing array outlives the pop: a slot left set would keep
		// a finished task, and the stream it captured, reachable.
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.queued.Add(-1)
		p.running.Add(1)
		fn()
		p.running.Add(-1)
		p.completed.Add(1)
	}
}

// Submit enqueues a fire-and-forget task. Tasks run in submission order
// relative to one another (FIFO hand-off to workers), though completion
// order depends on task durations. Submitting to a closed pool runs the
// task inline so no work is silently lost during shutdown.
func (p *Pool) Submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fn()
		return
	}
	p.queue = append(p.queue, fn)
	p.queued.Add(1)
	p.mu.Unlock()
	p.cond.Signal()
}

// Stats is a point-in-time snapshot of pool load, for the
// streamad_pool_* metric families.
type Stats struct {
	Workers   int
	Queued    int64
	Running   int64
	Completed uint64
}

// Stats snapshots the pool counters; safe from any goroutine.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:   p.workers,
		Queued:    p.queued.Load(),
		Running:   p.running.Load(),
		Completed: p.completed.Load(),
	}
}

// Close stops the workers after the queue drains and joins them. Safe to
// call twice; Submit after Close runs tasks on the caller.
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
