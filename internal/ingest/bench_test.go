package ingest_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// benchDetector is a cheap arithmetic detector: enough floating-point
// work per Step to resemble a light model without drowning the
// registry's own overhead (the thing under measurement).
type benchDetector struct {
	acc float64
}

func (d *benchDetector) Step(v []float64) (core.Result, bool) {
	for _, x := range v {
		d.acc = 0.99*d.acc + math.Abs(x)
	}
	s := 0.5 + 0.5*math.Tanh(d.acc*0.01)
	return core.Result{Score: s, Nonconformity: s}, true
}

func benchRegistry(b *testing.B, shards int) *ingest.Registry {
	b.Helper()
	r, err := ingest.New(ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) {
			return &benchDetector{}, nil
		},
		NewThresholder: func(string) score.Thresholder {
			return &score.StaticThresholder{T: 0.9}
		},
		Shards:     shards,
		QueueDepth: 256,
		MaxStreams: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkObserveSingle is the synchronous one-vector-per-call path:
// every producer goroutine round-trips one vector at a time across 256
// streams. RunParallel supplies GOMAXPROCS producers.
func BenchmarkObserveSingle(b *testing.B) {
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := benchRegistry(b, shards)
			vec := []float64{0.3, -0.2, 0.7, 0.1}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					id := fmt.Sprintf("s-%d", ctr.Add(1)%256)
					if _, err := r.Observe(id, vec); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkObserveBatched is the NDJSON-endpoint shape: enqueue a burst
// of 64 vectors (8 streams × 8 vectors, interleaved) and then collect
// the acks, letting the dispatcher coalesce same-stream runs into one
// locked pass.
func BenchmarkObserveBatched(b *testing.B) {
	const batch, streams = 64, 8
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := benchRegistry(b, shards)
			vec := []float64{0.3, -0.2, 0.7, 0.1}
			var ctr atomic.Uint64
			b.SetBytes(0)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				acks := make([]ingest.Ack, 0, batch)
				for pb.Next() {
					// One iteration = one 64-vector burst, so ns/op is
					// directly comparable to 64× the single path.
					base := ctr.Add(1) * streams
					acks = acks[:0]
					for i := 0; i < batch; i++ {
						id := fmt.Sprintf("s-%d", (base+uint64(i%streams))%256)
						a, err := r.Enqueue(id, vec)
						if err != nil {
							b.Error(err)
							return
						}
						acks = append(acks, a)
					}
					for _, a := range acks {
						<-a.Done
					}
				}
			})
		})
	}
}

// BenchmarkTierCycle is one trip around the residency ladder for a pcb
// stream shaped like the repo benchmark's tier-churn fleet (w=16, m=100,
// 4 channels) on a real directory. warm: demote, then an observe that
// pages back in. cold: demote, evict (which writes the checkpoint the
// demotion deferred), then an observe that restores.
func BenchmarkTierCycle(b *testing.B) {
	for _, tier := range []string{"warm", "cold"} {
		b.Run(tier, func(b *testing.B) {
			store, err := persist.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			r, err := ingest.New(ingest.Config{
				NewDetector: func(string) (ingest.Stepper, error) {
					return streamad.NewFromSpec("pcb+sw+musigma", streamad.Config{Channels: 4, Window: 16, TrainSize: 100, Seed: 1})
				},
				Store:     store,
				WarmAfter: time.Hour, // the loop below drives the ladder
				StreamTTL: 2 * time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			v := []float64{0.3, -0.2, 0.7, 0.1}
			observe := func() {
				v[0] += 0.01
				if res, err := r.Observe("s", v); err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
			}
			for i := 0; i < 200; i++ { // past w+m: the window state is at full size
				observe()
			}
			far := time.Now().Add(24 * time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.PageIdle(far) != 1 {
					b.Fatal("not demoted")
				}
				if tier == "cold" && r.EvictIdle(far) != 1 {
					b.Fatal("not evicted")
				}
				observe()
			}
		})
	}
}
