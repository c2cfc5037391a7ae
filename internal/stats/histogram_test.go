package stats

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets: bounds are inclusive upper limits in the reported
// unit, values arrive in the observed unit, and whatever exceeds the last
// bound lands in the overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.0005, 0.001, 2.5}, 1e9)
	for _, d := range []time.Duration{
		0, 499999 * time.Nanosecond, 500 * time.Microsecond, // ≤ 0.5ms
		500001 * time.Nanosecond, time.Millisecond, // ≤ 1ms
		2500 * time.Millisecond,              // ≤ 2.5s
		2500*time.Millisecond + 1, time.Hour, // overflow
	} {
		h.Observe(int64(d))
	}
	s := h.Snapshot()
	want := []uint64{3, 2, 1, 2}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", s.Buckets, want)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if wantSum := int64(2500*time.Microsecond + 5*time.Second + 1 + time.Hour); s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
}

// TestHistogramConcurrent: writers and snapshotters share the histogram
// without a lock (run under -race); the final snapshot accounts for every
// observation exactly once.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8}, 1)
	const writers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64((w + i) % 12))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for i := 0; i < 1000; i++ {
			n := h.Snapshot().Count()
			if n < last {
				t.Errorf("count went backwards: %d after %d", n, last)
				return
			}
			last = n
		}
	}()
	wg.Wait()
	<-done
	if n := h.Snapshot().Count(); n != writers*each {
		t.Fatalf("count = %d, want %d", n, writers*each)
	}
}
