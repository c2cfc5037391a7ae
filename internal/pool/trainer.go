package pool

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// Trainer is the global fine-tune pool: drift-triggered training jobs
// compete for K slots instead of each spawning a goroutine. The queue is
// a priority queue keyed by how recently each stream was served — the
// stream that trained longest ago dequeues first, FIFO among ties — so
// a single drift-storming stream cannot monopolize the slots while the
// rest of the fleet's models go stale.
//
// A job owns the model clone and training-set copy its detector took at
// the drift trigger, and the detector adopts the result at a fixed step
// whenever the job runs; a job still queued by then is canceled and run
// by the detector itself.
type Trainer struct {
	mu     sync.Mutex
	cond   sync.Cond
	q      trainHeap
	served map[string]uint64 // per-key tick of the most recent dequeue
	tick   uint64            // logical clock: bumps on every submit/dequeue
	closed bool
	slots  int
	wg     sync.WaitGroup

	queued    atomic.Int64
	running   atomic.Int64
	completed atomic.Uint64
	canceled  atomic.Uint64
}

// maxServedKeys bounds the fairness map; beyond it the history resets,
// which only costs momentarily coarser ordering, never correctness.
const maxServedKeys = 65536

// NewTrainer starts a trainer pool with k slots (<= 0 selects 2).
//
//streamad:lifecycle — owns the slot goroutines; Close joins them.
func NewTrainer(k int) *Trainer {
	if k <= 0 {
		k = 2
	}
	t := &Trainer{slots: k, served: make(map[string]uint64)}
	t.q.owner = t
	t.cond.L = &t.mu
	t.wg.Add(k)
	for i := 0; i < k; i++ {
		go t.slot()
	}
	return t
}

// Slots returns the fixed slot count.
func (t *Trainer) Slots() int { return t.slots }

// trainJob states: 0 queued, 1 claimed by a slot, 2 canceled.
type trainJob struct {
	key   string
	run   func()
	seq   uint64 // submission order, the tie-break
	state atomic.Int32
	index int // heap index, maintained by trainHeap
	// servedAt is the key's last-served tick at submission; refreshed
	// against the live map at comparison time via the heap's owner.
}

// trainHeap orders jobs least-recently-served first, submission order
// among ties. Less consults the owner's served map so a key trained
// moments ago sinks behind keys still waiting.
type trainHeap struct {
	jobs  []*trainJob
	owner *Trainer
}

func (h *trainHeap) Len() int { return len(h.jobs) }
func (h *trainHeap) Less(i, j int) bool {
	si := h.owner.served[h.jobs[i].key]
	sj := h.owner.served[h.jobs[j].key]
	if si != sj {
		return si < sj
	}
	return h.jobs[i].seq < h.jobs[j].seq
}
func (h *trainHeap) Swap(i, j int) {
	h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i]
	h.jobs[i].index = i
	h.jobs[j].index = j
}
func (h *trainHeap) Push(x interface{}) {
	j := x.(*trainJob)
	j.index = len(h.jobs)
	h.jobs = append(h.jobs, j)
}
func (h *trainHeap) Pop() interface{} {
	old := h.jobs
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	h.jobs = old[:n-1]
	return j
}

// Submit queues one fine-tune for the stream key; run executes on a pool
// slot. The returned cancel reports true when it won the race against
// dequeue — the job will never run here and the caller owns it; false
// means a slot has already claimed (or finished) it.
func (t *Trainer) Submit(key string, run func()) (cancel func() bool) {
	j := &trainJob{key: key, run: run}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		run()
		return func() bool { return false }
	}
	t.tick++
	j.seq = t.tick
	heap.Push(&t.q, j)
	t.queued.Add(1)
	t.mu.Unlock()
	t.cond.Signal()
	return func() bool {
		if !j.state.CompareAndSwap(0, 2) {
			return false
		}
		t.canceled.Add(1)
		t.queued.Add(-1)
		// The heap entry stays until a slot pops and discards it; lazy
		// deletion keeps cancel O(1) without index juggling under races.
		return true
	}
}

// slot is one training slot: it pops the least-recently-served runnable
// job, stamps the key as served, and runs it.
func (t *Trainer) slot() {
	defer t.wg.Done()
	for {
		t.mu.Lock()
		var j *trainJob
		for j == nil {
			for t.q.Len() == 0 && !t.closed {
				t.cond.Wait()
			}
			if t.q.Len() == 0 && t.closed {
				t.mu.Unlock()
				return
			}
			cand := heap.Pop(&t.q).(*trainJob)
			if cand.state.CompareAndSwap(0, 1) {
				j = cand
			}
			// else: canceled while queued; drop it and pop again.
		}
		if len(t.served) >= maxServedKeys {
			t.served = make(map[string]uint64)
		}
		t.tick++
		t.served[j.key] = t.tick
		// Less consults served, so this stamp may invalidate the ordering
		// of queued siblings of the same key; restore the heap invariant
		// before anyone pops again.
		if t.q.Len() > 0 {
			heap.Init(&t.q)
		}
		t.mu.Unlock()
		t.queued.Add(-1)
		t.running.Add(1)
		j.run()
		t.running.Add(-1)
		t.completed.Add(1)
	}
}

// TrainerStats is a point-in-time snapshot of trainer-pool load.
type TrainerStats struct {
	Slots     int
	Queued    int64
	Running   int64
	Completed uint64
	Canceled  uint64
}

// Stats snapshots the trainer counters; safe from any goroutine.
func (t *Trainer) Stats() TrainerStats {
	return TrainerStats{
		Slots:     t.slots,
		Queued:    t.queued.Load(),
		Running:   t.running.Load(),
		Completed: t.completed.Load(),
		Canceled:  t.canceled.Load(),
	}
}

// Close drains the queue (running every remaining uncanceled job) and
// joins the slots. Safe to call twice; Submit after Close runs inline.
func (t *Trainer) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	t.mu.Unlock()
	t.cond.Broadcast()
	t.wg.Wait()
}
