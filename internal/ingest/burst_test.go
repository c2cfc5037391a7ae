package ingest_test

import (
	"math"
	"path/filepath"
	"testing"

	"streamad"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/pool"
	"streamad/internal/score"
)

// burstSpecs are the streams TestBurstsMatchPerVectorTwin drives: the
// repo benchmark's model-heavy ensemble as it is, the same ensemble
// with a sync fine-tune forced every 7 ready steps (so triggers land at
// every offset of a 16-vector burst), and with async fine-tunes adopted
// 32 steps after their trigger (so adoptions straddle burst boundaries).
var burstSpecs = map[string]string{
	"heavy": "ensemble(usad+sw+musigma, nbeats+sw+musigma; agg=mean)",
	"sync":  "ensemble(usad+sw+regular, nbeats+sw+regular; agg=mean)",
	"async": "ensemble(usad+sw+regular+async, nbeats+sw+regular+async; agg=mean)",
}

// burstBase ends warmup mid-burst: the window fills at vector 8 and 37
// warmup windows later the first score is vector 45, offset 12 of the
// third burst.
var burstBase = streamad.Config{Channels: 2, Window: 8, TrainSize: 24, WarmupVectors: 37, RegularInterval: 7, Seed: 5}

// burstTwin is the reference a stream must match: the same detector and
// alert policy stepped one vector at a time through the library.
type burstTwin struct {
	det streamad.StreamDetector
	th  score.Thresholder
}

// step returns the Result the registry owes for v, built exactly as the
// dispatcher builds it; a vector the detector rejects is BadShape.
func (tw *burstTwin) step(seq uint64, v []float64) (out ingest.Result) {
	out.Seq = seq
	var res streamad.Result
	var ok bool
	func() {
		defer func() {
			if recover() != nil {
				out.BadShape = true
			}
		}()
		res, ok = tw.det.Step(v)
	}()
	if !ok {
		return out
	}
	out.Ready = true
	out.Score, out.Nonconformity, out.FineTuned, out.Source = res.Score, res.Nonconformity, res.FineTuned, res.Source
	out.Threshold = tw.th.Threshold()
	out.Alert = tw.th.Alert(res.Score)
	return out
}

// sameResult compares two Results bit for bit.
func sameResult(a, b ingest.Result) bool {
	return a.Seq == b.Seq && a.Ready == b.Ready && a.BadShape == b.BadShape && a.Err == nil && b.Err == nil &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Nonconformity) == math.Float64bits(b.Nonconformity) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		a.Alert == b.Alert && a.FineTuned == b.FineTuned && a.Source == b.Source
}

// TestBurstsMatchPerVectorTwin sends 16-vector bursts that the
// dispatcher drains as one batch each (a one-worker scoring pool is held
// by a gate task while a burst is enqueued) and checks every Result
// bit for bit against a library twin stepping per vector: across warmup
// ending mid-burst, sync fine-tunes triggered mid-burst, async adoptions
// across burst boundaries, a wrong-length vector mid-burst (BadShape for
// that vector only), and a crash after which the registry restores from
// the snapshot and replays the WAL tail.
func TestBurstsMatchPerVectorTwin(t *testing.T) {
	const burst, bursts, snapAfter, crashAfter = 16, 12, 6, 9
	const badID, badBurst, badOffset = "sync", 5, 5
	ids := []string{"heavy", "sync", "async"}
	twins := map[string]*burstTwin{}
	for _, id := range ids {
		det, err := streamad.NewFromSpec(burstSpecs[id], burstBase)
		if err != nil {
			t.Fatal(err)
		}
		twins[id] = &burstTwin{det, score.NewQuantileThresholder(0.95)}
	}
	input := func(id string, i int) []float64 {
		if id == badID && i == badBurst*burst+badOffset {
			return []float64{1, 2, 3}
		}
		s := map[string]int{"heavy": 0, "sync": 1, "async": 2}[id]
		return vec(s, i)
	}
	open := func(dir string) (*ingest.Registry, *pool.Pool, *persist.Store) {
		t.Helper()
		store, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := pool.New(1)
		r, err := ingest.New(ingest.Config{
			NewDetector: func(id string) (ingest.Stepper, error) {
				return streamad.NewFromSpec(burstSpecs[id], burstBase)
			},
			NewThresholder: func(string) score.Thresholder { return score.NewQuantileThresholder(0.95) },
			Store:          store,
			QueueDepth:     64,
			ScorePool:      p,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, p, store
	}
	send := func(r *ingest.Registry, p *pool.Pool, b int) {
		t.Helper()
		gate := make(chan struct{})
		p.Submit(func() { <-gate }, nil)
		acks := map[string][]ingest.Ack{}
		for _, id := range ids {
			for k := 0; k < burst; k++ {
				a, err := r.Enqueue(id, input(id, b*burst+k))
				if err != nil {
					t.Fatal(err)
				}
				acks[id] = append(acks[id], a)
			}
		}
		close(gate)
		for _, id := range ids {
			for k, a := range acks[id] {
				i := b*burst + k
				got := <-a.Done
				want := twins[id].step(uint64(i), input(id, i))
				if !sameResult(got, want) {
					t.Fatalf("%s vector %d (burst %d offset %d): got %+v, want %+v", id, i, b, k, got, want)
				}
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "state")
	r, p, store := open(dir)
	for b := 0; b < crashAfter; b++ {
		send(r, p, b)
		if b == snapAfter {
			if err := r.SnapshotAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := r.Stats()
	if n, sum := st.BatchSize.Count(), st.BatchSize.Sum; n != uint64(crashAfter*len(ids)) || sum != int64(crashAfter*len(ids)*burst) {
		t.Fatalf("%d dispatcher passes over %d vectors, want every burst drained whole", n, sum)
	}
	crashed := filepath.Join(t.TempDir(), "state")
	copyDir(t, dir, crashed)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	store.Close()

	r2, p2, store2 := open(crashed)
	defer func() {
		r2.Close()
		p2.Close()
		store2.Close()
	}()
	if n, _, err := r2.RestoreStreams(); err != nil || n != len(ids) {
		t.Fatalf("restored %d streams, err %v", n, err)
	}
	for b := crashAfter; b < bursts; b++ {
		send(r2, p2, b)
	}
	for _, id := range ids {
		info, _ := r2.StreamStats(id)
		if ft := twins[id].det.FineTunes(); info.Steps != bursts*burst || ft == 0 && id != "heavy" {
			t.Fatalf("%s: %d steps, %d fine-tunes", id, info.Steps, ft)
		}
	}
}
