package main

import (
	"math"
	"sync"

	"streamad"
	"streamad/internal/score"
)

// referenceDigests replays the verified streams' exact inputs through
// the library path — streamad.NewFromSpec plus the daemon's default
// alert policy, no server, no store — and returns the digest each
// stream's responses must fold to. It is the repo's bit-identity
// contract stated as a check: server path ≡ library path, across a
// restart and any number of page-outs and restores.
//
//streamad:lifecycle — the per-stream goroutines are joined before return.
func referenceDigests(in *inputs) (map[int]uint64, error) {
	out := make(map[int]uint64, len(in.wl.verify))
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, pinnedProcs) // semaphore: one replay per pinned CPU
	for _, i := range in.wl.verify {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			d, err := referenceDigest(in, i)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			out[i] = d
		}(i)
	}
	wg.Wait()
	return out, first
}

func referenceDigest(in *inputs, i int) (uint64, error) {
	gen, err := in.stream(i)
	if err != nil {
		return 0, err
	}
	det, err := newDetector(in.wl, in.wl.spec, in.wl.streamID(i), nil)
	if err != nil {
		return 0, err
	}
	th := score.NewQuantileThresholder(alertQuantile)
	d := uint64(fnvOffset)
	total := in.wl.prefix() + in.quota[i]
	for seq := 0; seq < total; seq++ {
		vec, _ := gen.Next()
		res, ready := det.Step(vec)
		var sc float64
		var alert bool
		if ready {
			sc = finiteOrZero(res.Score)
			alert = th.Alert(res.Score)
		}
		d = foldDigest(d, uint64(seq), ready, sc, alert)
	}
	return d, nil
}

// newDetector builds the detector streamadd builds for stream id of the
// workload — the one construction the bit-identity check rests on. spec
// is wl.spec, or one ensemble member's for the standalone replay; pool
// is the shared scoring pool, nil for a private one.
func newDetector(wl *workload, spec, id string, pool *streamad.ScorePool) (streamad.StreamDetector, error) {
	return streamad.NewFromSpec(spec, streamad.Config{
		Channels: wl.channels, Window: wl.window, TrainSize: wl.train,
		Seed: detectorSeed, TrainerKey: id, ScorePool: pool,
	})
}

// finiteOrZero mirrors the server's wire encoding of a score.
func finiteOrZero(f float64) float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return f
}
