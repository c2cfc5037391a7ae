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
//     dispatcher's per-stream batch drains); Run is a help-first
//     fork-join for intra-task parallelism (ensemble members): the
//     caller enqueues claimable tasks and then claims unclaimed ones
//     itself, so a Run issued from inside a pool worker can never
//     deadlock — in the worst case the caller runs everything inline,
//     and when every worker is already busy it does so without
//     publishing anything.
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
	queue   []entry
	closed  bool
	workers int
	wg      sync.WaitGroup

	queued    atomic.Int64 // tasks waiting in the FIFO
	running   atomic.Int64 // tasks being executed by workers
	completed atomic.Uint64
}

// entry is one FIFO slot: a Submit closure, or one claimable task of a
// Run (fn nil).
type entry struct {
	fn   func()
	task *runTask
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
		e := p.queue[0]
		// The backing array outlives the pop: a slot left set would keep
		// a finished Run's tasks, and their ensemble, reachable.
		p.queue[0] = entry{}
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.queued.Add(-1)
		fn := e.fn
		if e.task != nil {
			if !e.task.claim() {
				continue // the Run's caller ran it: bookkeeping, not a task
			}
			fn = e.task.fn
		}
		p.running.Add(1)
		fn()
		p.running.Add(-1)
		p.completed.Add(1)
		if e.task != nil {
			close(e.task.done)
		}
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
	p.queue = append(p.queue, entry{fn: fn})
	p.queued.Add(1)
	p.mu.Unlock()
	p.cond.Signal()
}

// runTask is one claimable unit of a Run fork-join. state moves
// 0 (unclaimed) → 1 (claimed); exactly one claimant runs the task.
type runTask struct {
	fn    func()
	state atomic.Int32
	done  chan struct{}
}

// claim attempts to take ownership; the winner must run fn, and a
// worker that wins closes done for the joining caller.
func (t *runTask) claim() bool { return t.state.CompareAndSwap(0, 1) }

// Run executes every task and returns when all have finished. It is the
// help-first fork-join: tasks are published to the pool, and the caller
// then claims still-unclaimed tasks (newest first, the ones least likely
// to have been picked up) and runs them inline, waiting only for tasks a
// worker actually claimed. Because the caller always makes progress on
// unclaimed work, Run is deadlock-free even when invoked from inside a
// pool worker with every other worker busy.
//
// When no worker is idle, publishing cannot help: the tasks would wait
// behind the workers' own work while the caller runs them anyway, or be
// stolen by a worker whose own queue then waits. Run then executes the
// tasks on the caller, in order, allocating and enqueueing nothing.
func (p *Pool) Run(fns ...func()) {
	if len(fns) < 2 || p.running.Load() >= int64(p.workers) {
		for _, fn := range fns {
			fn()
		}
		return
	}
	tasks := make([]*runTask, len(fns))
	for i, fn := range fns {
		tasks[i] = &runTask{fn: fn, done: make(chan struct{})}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for _, t := range tasks {
			t.fn()
		}
		return
	}
	for _, t := range tasks {
		p.queue = append(p.queue, entry{task: t})
	}
	p.queued.Add(int64(len(tasks)))
	p.mu.Unlock()
	p.cond.Broadcast()
	// Help: claim from the back (workers drain from the front). A task
	// the caller wins is run inline and needs no join; the worker that
	// later pops its entry loses the claim and drops it.
	mine := make([]bool, len(tasks))
	for i := len(tasks) - 1; i >= 0; i-- {
		if tasks[i].claim() {
			mine[i] = true
			tasks[i].fn()
		}
	}
	// Join only the tasks a worker claimed: it closes done right after
	// running them.
	for i, t := range tasks {
		if !mine[i] {
			<-t.done
		}
	}
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
