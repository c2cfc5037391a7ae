package core

import (
	"fmt"

	"streamad/internal/wire"
)

// Node is the one detector contract. The pipeline leaf (streamad.Detector:
// a core.Detector plus its model), the tier-0 detectors, ensembles and
// cascades all implement it, so any of them can be a child of any
// composite and everything above — ingestion, the server, the CLIs —
// programs against one shape.
type Node interface {
	Stepper
	// Steps returns the number of stream vectors consumed.
	Steps() int
	// FineTunes returns the drift-triggered fine-tuning sessions so far.
	FineTunes() int
	// Walk defines the node's full checkpoint, its children's included,
	// which a parent walks as one of its sections. AppendBinary appends
	// it to dst; Save returns it in a fresh buffer. Load restores one
	// bit-identically and rejects a differently configured node's.
	wire.Walker
	AppendBinary(dst []byte) ([]byte, error)
	Save() ([]byte, error)
	Load(data []byte) error
	// Children returns the nodes this one is composed of, in checkpoint
	// order; nil for a leaf.
	Children() []Node
}

// Stepper is the scoring facet alone: all that Run and the ingestion
// dispatcher call, and the least a foreign detector handed to the serving
// stack may offer.
type Stepper interface {
	// Step consumes the next stream vector; ok is false during window
	// fill and warmup.
	Step(s []float64) (Result, bool)
}

// BatchStepper is the optional facet of a Stepper that takes a run of
// vectors in one call, so work shared by the run — a model's forward
// pass over every window between two adoptions — is done once. The
// pipeline leaf and the ensemble have it; StepBatch is how callers reach
// it.
type BatchStepper interface {
	// StepBatch steps a prefix of xs, of a length it chooses, with
	// exactly Step's effects, writing xs[i]'s outcome to out[i], and
	// returns the prefix's length. 0 hands the next vector back to the
	// caller, which steps it with Step; a wrapper that embeds a node and
	// overrides Step so keeps seeing every vector the node does not
	// batch.
	StepBatch(xs [][]float64, out []Outcome) int
}

// Outcome is one vector's answer in a batch: what Step returns, plus the
// panic value of a vector the node rejected — Step's contract for a
// wrong-length vector — which a batch carries instead of raising, so the
// rest of the batch is still stepped. An Attribution slice aliases its
// leaf's buffer, which every step rewrites: only the last ready one's in
// a batch is current.
type Outcome struct {
	Result
	Ready    bool
	Rejected any
}

// MaxBatch is the most windows a node predicts in one pass: batches are
// stepped in runs of at most MaxBatch vectors. Eight is the batch
// kernel's sample block, so each weight is loaded once per run; a longer
// run loads no fewer per window and only needs a larger scratch slab.
const MaxBatch = 8

// StepBatch steps xs through n, xs[i]'s outcome in out[i] (len(out) ≥
// len(xs)), and returns how many were ready: the runs n's BatchStepper
// facet takes through it, every other vector through stepOne. Either way
// the outcomes are exactly those of len(xs) Step calls.
func StepBatch(n Stepper, xs [][]float64, out []Outcome) (ready int) {
	b, _ := n.(BatchStepper)
	for i := 0; i < len(xs); {
		k := 0
		if b != nil {
			k = b.StepBatch(xs[i:], out[i:])
		}
		if k == 0 {
			out[i], k = stepOne(n, xs[i]), 1
		}
		for _, o := range out[i : i+k] {
			if o.Ready {
				ready++
			}
		}
		i += k
	}
	return ready
}

// stepOne is one Step whose panic, if it raises one, is caught into the
// Outcome's Rejected.
func stepOne(n Stepper, s []float64) (o Outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = Outcome{Rejected: p}
		}
	}()
	o.Result, o.Ready = n.Step(s)
	return o
}

// Closer is what an owner dropping a detector calls: Close settles
// background training so no trainer goroutine or pool job outlives it.
type Closer interface {
	Close()
}

// FineTuneStatser is what a metrics scrape reads: FineTuneStats snapshots
// fine-tuning activity and is safe from any goroutine.
type FineTuneStatser interface {
	FineTuneStats() FineTuneStats
}

// Run feeds an entire series (rows × N) through d, MaxBatch rows per
// StepBatch, and returns one anomaly score per time step with a parallel
// validity mask; steps before readiness score 0 and are marked invalid.
// A row d rejects panics, as its Step does, once its batch is stepped.
func Run(d Stepper, series [][]float64) (scores []float64, valid []bool) {
	scores = make([]float64, len(series))
	valid = make([]bool, len(series))
	out := make([]Outcome, MaxBatch)
	for i := 0; i < len(series); i += MaxBatch {
		rows := series[i:min(i+MaxBatch, len(series))]
		StepBatch(d, rows, out)
		for k, o := range out[:len(rows)] {
			if o.Rejected != nil {
				panic(o.Rejected)
			}
			if o.Ready {
				scores[i+k], valid[i+k] = o.Score, true
			}
		}
	}
	return scores, valid
}

// Composite is the interior-node half of the contract: an ensemble or
// cascade embeds it, hands it its children, and gains every tree-shaped
// operation — each written once, here, as a walk over the children that
// have the capability. A child composite has them all, so the walks
// recurse through any tree shape.
type Composite struct {
	// Nodes are the children, in checkpoint order.
	Nodes []Node
}

// Children implements Node.
func (c *Composite) Children() []Node { return c.Nodes }

// FineTuneStats aggregates the children's serve/train split statistics:
// counters, durations and histogram buckets sum, the Async/InFlight
// flags OR together, and LastSeconds is the maximum (cross-child recency
// is unknowable from atomics alone). Safe from any goroutine.
func (c *Composite) FineTuneStats() FineTuneStats {
	agg := FineTuneStats{Buckets: make([]uint64, len(FineTuneBuckets)+1)}
	for _, n := range c.Nodes {
		fs, ok := n.(FineTuneStatser)
		if !ok {
			continue
		}
		st := fs.FineTuneStats()
		agg.Async = agg.Async || st.Async
		agg.InFlight = agg.InFlight || st.InFlight
		agg.Launched += st.Launched
		agg.Skipped += st.Skipped
		agg.AdoptWaits += st.AdoptWaits
		agg.Completed += st.Completed
		if st.LastSeconds > agg.LastSeconds {
			agg.LastSeconds = st.LastSeconds
		}
		agg.TotalSeconds += st.TotalSeconds
		for i := range st.Buckets {
			agg.Buckets[i] += st.Buckets[i]
		}
	}
	return agg
}

// Close releases every child's pending fine-tune from its pool (a
// composite owns no goroutines of its own). Safe to call more than once;
// the composite remains steppable after.
func (c *Composite) Close() {
	for _, n := range c.Nodes {
		if cl, ok := n.(Closer); ok {
			cl.Close()
		}
	}
}

// PageOut implements Pager child-wise: every child that is a Pager is
// paged out and the blobs are concatenated as sections; the others (a
// cascade's tier-0 gate) stay resident, as a model does, and so does the
// composite's own state, which Save/Load carry. All-or-nothing: if a
// child refuses, the ones already paged are restored and the composite
// stays fully resident.
func (c *Composite) PageOut() ([]byte, error) {
	var set []byte
	for i, n := range c.Nodes {
		p, ok := n.(Pager)
		if !ok {
			continue
		}
		blob, err := p.PageOut()
		if err != nil {
			// The blobs were produced a moment ago by the receivers
			// themselves; a failure to take them back has no better
			// report than the refusal that caused the rollback.
			_ = c.pageIn(set, i)
			return nil, fmt.Errorf("core: page out child %d: %w", i, err)
		}
		set = wire.AppendBytes(set, blob)
	}
	return set, nil
}

// PageIn implements Pager, restoring a PageOut blob child-wise.
func (c *Composite) PageIn(data []byte) error { return c.pageIn(data, len(c.Nodes)) }

// pageIn restores the leading sections of data into the Pagers among the
// first n children.
func (c *Composite) pageIn(data []byte, n int) error {
	return wire.Decode(data, pageSet(c.Nodes[:n]))
}

// pageSet pages its Pagers in from a PageOut blob: one section of the
// child's own page bytes each, in child order.
type pageSet []Node

// Walk implements wire.Walker for decoding; PageOut writes the sections.
func (s pageSet) Walk(w *wire.Walk) {
	for i, n := range s {
		p, ok := n.(Pager)
		if !ok {
			continue
		}
		var page []byte
		if w.Bytes(&page); !w.Decoding() {
			return
		}
		if err := p.PageIn(page); err != nil {
			w.Fail(fmt.Errorf("core: page in child %d: %w", i, err))
		}
	}
}

// Paged implements Pager. Paging is all-or-nothing, so the first
// pageable child speaks for all.
func (c *Composite) Paged() bool {
	for _, n := range c.Nodes {
		if p, ok := n.(Pager); ok {
			return p.Paged()
		}
	}
	return false
}
