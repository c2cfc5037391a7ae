package stats

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram for concurrent writers, updated
// with atomics only: Observe is one bucket add and one sum add, so it can
// sit on a request or dispatch path without a lock. Buckets are stored
// per bucket, not cumulative, with a final overflow bucket; a reader
// cumulates them from one Snapshot, so its +Inf bucket, its count and its
// finite buckets always agree even while observations land.
type Histogram struct {
	bounds  []float64       // ascending upper bounds in the reported unit
	limits  []int64         // the same bounds in the observed integer unit
	buckets []atomic.Uint64 // len(bounds)+1; the last counts values above every bound
	sum     atomic.Int64
}

// NewHistogram returns a histogram over the given upper bounds. Values
// are observed as integers of which perUnit make one unit of the bounds:
// 1e9 for nanoseconds against bounds in seconds, 1 for plain counts.
func NewHistogram(bounds []float64, perUnit float64) *Histogram {
	h := &Histogram{
		bounds:  bounds,
		limits:  make([]int64, len(bounds)),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.limits[i] = int64(math.Round(b * perUnit))
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.limits) && v > h.limits[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the histogram's upper bounds (shared, read-only).
	Bounds []float64
	// Buckets[i] counts values in (Bounds[i-1], Bounds[i]]; the final
	// element counts values above the last bound.
	Buckets []uint64
	// Sum is the total of the observed values, in the observed unit.
	Sum int64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Buckets: make([]uint64, len(h.buckets)), Sum: h.sum.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Count is the number of observations in the snapshot.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}
