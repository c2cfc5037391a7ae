package ingest_test

import (
	"sync/atomic"
	"testing"
	"time"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// savingDetector is a real detector that counts its checkpoints and can
// hold its first Step until released.
type savingDetector struct {
	*streamad.Detector
	saves   atomic.Int32
	entered chan struct{} // nil: never gate
	release chan struct{}
	gated   bool
}

func (d *savingDetector) Step(v []float64) (core.Result, bool) {
	if d.entered != nil && !d.gated {
		d.gated = true
		d.entered <- struct{}{}
		<-d.release
	}
	return d.Detector.Step(v)
}

func (d *savingDetector) Save() ([]byte, error) {
	d.saves.Add(1)
	return d.Detector.Save()
}

// AppendBinary is the path background checkpoints take (into a borrowed
// buffer); it is a save like any other.
func (d *savingDetector) AppendBinary(dst []byte) ([]byte, error) {
	d.saves.Add(1)
	return d.Detector.AppendBinary(dst)
}

// TestSnapshotKicksCoalesce: a burst that crosses SnapshotEvery inside
// one dispatcher pass queues a kick per vector past the threshold, and
// the snapshotter cannot run until the pass ends. The whole crossing must
// cost one snapshot, and the state on disk must still recover
// bit-identically.
func TestSnapshotKicksCoalesce(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dets := map[string]*savingDetector{}
	newDet := func(id string) *savingDetector {
		det, err := streamad.New(knnConfig())
		if err != nil {
			t.Fatal(err)
		}
		return &savingDetector{Detector: det}
	}
	cfg := ingest.Config{
		NewDetector: func(id string) (ingest.Stepper, error) {
			d := newDet(id)
			if id == "burst" {
				d.entered, d.release = make(chan struct{}, 1), make(chan struct{})
			}
			dets[id] = d
			return d, nil
		},
		NewThresholder: func(string) score.Thresholder { return score.NewQuantileThresholder(0.95) },
		Store:          store,
		SnapshotEvery:  4,
		QueueDepth:     64,
	}
	r, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1 holds the dispatcher on vector 0; vectors 1..40 queue behind
	// it and drain as one pass whose appends 4..41 each kick.
	const n = 41
	acks := make([]ingest.Ack, n)
	if acks[0], err = r.Enqueue("burst", vec(0, 0)); err != nil {
		t.Fatal(err)
	}
	burst := dets["burst"]
	<-burst.entered
	for i := 1; i < n; i++ {
		if acks[i], err = r.Enqueue("burst", vec(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(burst.release)
	got := make([]ingest.Result, n)
	for i, a := range acks {
		got[i] = <-a.Done
	}

	// The kick channel is FIFO and has one consumer: once a later kick
	// for another stream has been served, every burst kick has been too.
	for i := 0; i < cfg.SnapshotEvery; i++ {
		if _, err := r.Observe("marker", vec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); dets["marker"].saves.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the marker stream's kick was never served")
		}
		time.Sleep(time.Millisecond)
	}
	if s := burst.saves.Load(); s != 1 {
		t.Fatalf("one SnapshotEvery crossing took %d snapshots, want 1", s)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if s := burst.saves.Load(); s != 1 {
		t.Fatalf("clean stream was snapshotted again on Close: %d snapshots", s)
	}
	store.Close()

	// Recovery: a fresh registry on the same directory continues the
	// stream exactly where an uninterrupted detector would.
	store, err = persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg.Store = store
	cfg.NewDetector = func(id string) (ingest.Stepper, error) { return newDet(id), nil }
	r2, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if restored, _, err := r2.RestoreStreams(); err != nil || restored != 2 {
		t.Fatalf("restored %d streams, err %v; want 2", restored, err)
	}
	ref, err := streamad.New(knnConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i++ {
		want, ok := ref.Step(vec(0, i))
		res := got[i%n]
		if i >= n {
			if res, err = r2.Observe("burst", vec(0, i)); err != nil {
				t.Fatal(err)
			}
		}
		if res.Seq != uint64(i) || res.Ready != ok || (ok && res.Score != want.Score) {
			t.Fatalf("step %d: seq %d ready %v score %v, want seq %d ready %v score %v",
				i, res.Seq, res.Ready, res.Score, i, ok, want.Score)
		}
	}
}
