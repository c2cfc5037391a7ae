// Ingestion observability: lock-free counters the /metrics endpoint
// renders as the streamad_ingest_* families — shed and dropped vectors,
// evictions, a dispatcher batch-size histogram, and per-shard occupancy
// and queue depth.
package ingest

import (
	"sync/atomic"

	"streamad/internal/pool"
	"streamad/internal/stats"
)

// batchSizeBounds are the upper bucket bounds of the dispatcher
// batch-size histogram, in vectors per pass.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// ingestMetrics is the registry's hot-path instrumentation; every field
// is atomic so scoring never takes a lock to count.
type ingestMetrics struct {
	shed    atomic.Uint64
	dropped atomic.Uint64
	evicted atomic.Uint64

	// Tier ladder transitions (hot ⇄ warm ⇄ cold, plus the eviction
	// shortcut hot→cold and the restore shortcut cold→hot).
	hotToWarm  atomic.Uint64
	warmToHot  atomic.Uint64
	warmToCold atomic.Uint64
	hotToCold  atomic.Uint64
	coldToHot  atomic.Uint64

	// batchSize takes one observation per dispatcher pass: the number
	// of vectors the pass coalesced.
	batchSize *stats.Histogram
}

// ShardStat is one shard's instantaneous load.
type ShardStat struct {
	Streams    int // streams resident on the shard
	QueueDepth int // vectors queued across the shard's streams
}

// Stats is an instantaneous snapshot of the ingestion layer, cheap
// enough to take on every /metrics scrape.
type Stats struct {
	Shards     int
	QueueDepth int // configured per-stream bound
	Overload   Policy

	Streams       int   // live streams
	StreamsTotal  int64 // streams ever created (incl. restored/evicted)
	QueuedVectors int   // vectors currently queued across all streams

	// Residency tiers. Hot+Warm = Streams (resident); Cold counts
	// checkpointed-but-unloaded streams in the store.
	HotStreams  int
	WarmStreams int
	ColdStreams int

	SwapBytes int64 // size of the swap file holding the warm streams' pages

	// Tier transition totals since start.
	HotToWarm  uint64
	WarmToHot  uint64
	WarmToCold uint64
	HotToCold  uint64
	ColdToHot  uint64

	// ScorePool is the shared scoring pool's instantaneous load.
	ScorePool pool.Stats

	ShedTotal    uint64
	DroppedTotal uint64
	EvictedTotal uint64

	// BatchSize is the vectors-per-dispatcher-pass histogram: its count
	// is the number of passes, its sum the vectors they scored.
	BatchSize stats.HistogramSnapshot

	PerShard []ShardStat
}

// Stats snapshots the ingestion counters. Queue depths are read under
// each stream's queue lock, one stream at a time; no registry-wide lock
// exists to hold.
func (r *Registry) Stats() Stats {
	s := Stats{
		Shards:       len(r.shards),
		QueueDepth:   r.cfg.QueueDepth,
		Overload:     r.cfg.Overload,
		StreamsTotal: r.history.Load(),
		ShedTotal:    r.met.shed.Load(),
		DroppedTotal: r.met.dropped.Load(),
		EvictedTotal: r.met.evicted.Load(),
		HotToWarm:    r.met.hotToWarm.Load(),
		WarmToHot:    r.met.warmToHot.Load(),
		WarmToCold:   r.met.warmToCold.Load(),
		HotToCold:    r.met.hotToCold.Load(),
		ColdToHot:    r.met.coldToHot.Load(),
		ScorePool:    r.pool.Stats(),
		BatchSize:    r.met.batchSize.Snapshot(),
		PerShard:     make([]ShardStat, len(r.shards)),
	}
	r.forEach(func(st *stream) {
		ss := &s.PerShard[r.shardIndex(st.id)]
		ss.Streams++
		st.qmu.Lock()
		ss.QueueDepth += len(st.queue)
		st.qmu.Unlock()
		if Tier(st.tier.Load()) == TierWarm {
			s.WarmStreams++
		} else {
			s.HotStreams++
		}
	})
	for _, ss := range s.PerShard {
		s.Streams += ss.Streams
		s.QueuedVectors += ss.QueueDepth
	}
	if r.cfg.Store != nil {
		s.SwapBytes = r.cfg.Store.SwapBytes()
		// Cold = checkpointed in the store but not resident. A readdir per
		// scrape; best-effort (a listing error just reports zero).
		if ids, err := r.cfg.Store.IDs(); err == nil {
			cold := len(ids) - s.Streams
			if cold > 0 {
				s.ColdStreams = cold
			}
		}
	}
	return s
}
