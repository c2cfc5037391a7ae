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
	// AppendBinary appends the node's full checkpoint — its children's
	// included — to dst; Save returns it in a fresh buffer. Load restores
	// one bit-identically and rejects a differently configured node's.
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

// Run feeds an entire series (rows × N) through d and returns one anomaly
// score per time step with a parallel validity mask; steps before
// readiness score 0 and are marked invalid.
func Run(d Stepper, series [][]float64) (scores []float64, valid []bool) {
	scores = make([]float64, len(series))
	valid = make([]bool, len(series))
	for i, s := range series {
		if res, ok := d.Step(s); ok {
			scores[i] = res.Score
			valid[i] = true
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
	rd := wire.NewReader(data)
	for i, k := range c.Nodes[:n] {
		if p, ok := k.(Pager); ok {
			if err := p.PageIn(rd.Section()); err != nil {
				return fmt.Errorf("core: page in child %d: %w", i, err)
			}
		}
	}
	return rd.Done()
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
