package ingest_test

import (
	"errors"
	"testing"
	"time"

	"streamad"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// migrationCase builds one real detector family for the migration
// invariant: the adopted stream must score the future exactly as the
// uninterrupted source would have.
type migrationCase struct {
	name string
	spec string
}

var migrationCases = []migrationCase{
	{"knn", "knn+sw+musigma+al"},
	{"ensemble", "ensemble(knn+sw+regular+avg, arima+sw+regular+avg, knn+ures+regular+avg; agg=perf, prune=-8)"},
	{"cascade", "cascade(zscore, knn; admit=0.1, calib=64, gatewin=32)"},
}

func specRegistry(t *testing.T, spec string, store *persist.Store, snapEvery int) *ingest.Registry {
	t.Helper()
	base := streamad.Config{Channels: 2, Window: 8, TrainSize: 16, Seed: 1}
	r, err := ingest.New(ingest.Config{
		NewDetector: func(string) (ingest.Stepper, error) {
			return streamad.NewFromSpec(spec, base)
		},
		NewThresholder: func(string) score.Thresholder {
			return score.NewQuantileThresholder(0.95)
		},
		Store:         store,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestMigrationBitIdentical: for every detector family, handing a stream
// off mid-run (its live snapshot file shipped to a second registry,
// exactly the /migrate protocol's payload) must leave the adopted stream
// bit-identical to an uninterrupted twin — same fingerprint at the
// transfer point, then identical scores, nonconformities, thresholds and
// alert decisions on every future vector.
func TestMigrationBitIdentical(t *testing.T) {
	const (
		id     = "soak-7"
		before = 96 // vectors scored on the source pre-handoff
		after  = 64 // vectors scored on the target post-adopt
	)
	for _, tc := range migrationCases {
		t.Run(tc.name, func(t *testing.T) {
			storeA, err := persist.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer storeA.Close()
			storeB, err := persist.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer storeB.Close()

			// src checkpoints after 64 vectors; the feed pauses right there
			// so the boundary is deterministic, then the last 32 pre-handoff
			// vectors land only in the WAL. The handoff must still ship the
			// live state at seq 96, not the checkpoint on disk.
			src := specRegistry(t, tc.spec, storeA, 64)
			dst := specRegistry(t, tc.spec, storeB, 0)
			ref := specRegistry(t, tc.spec, nil, 0)

			var want []ingest.Result
			for i := 0; i < before+after; i++ {
				res, err := ref.Observe(id, vec(7, i))
				if err != nil {
					t.Fatal(err)
				}
				if i >= before {
					want = append(want, res)
				}
			}
			for i := 0; i < 64; i++ {
				if _, err := src.Observe(id, vec(7, i)); err != nil {
					t.Fatal(err)
				}
			}
			// The 64th admit kicked the background snapshotter; wait for the
			// checkpoint to land before feeding the tail, so the snapshot
			// boundary sits exactly at seq 64 and the remaining vectors
			// accumulate purely in the WAL.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if snap, err := storeA.ReadSnapshot(id); err == nil && snap.Seq == 64 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("source never wrote the mid-stream snapshot at seq 64")
				}
				time.Sleep(5 * time.Millisecond)
			}
			for i := 64; i < before; i++ {
				if _, err := src.Observe(id, vec(7, i)); err != nil {
					t.Fatal(err)
				}
			}

			snap, err := src.Handoff(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil || snap.ID != id || snap.Seq != before {
				t.Fatalf("handoff snapshot = %+v, want the live state at seq %d, not the checkpoint at 64", snap, before)
			}
			// The source no longer knows the stream.
			if _, ok := src.StreamStats(id); ok {
				t.Fatal("stream still live on source after handoff")
			}

			// The target takes the snapshot file, as /migrate does, and
			// promotes a replica that re-encodes to the file's CRC.
			file, err := persist.EncodeSnapshotFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			rep, shipped, err := dst.ReplicaFromFile(id, file)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := rep.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if want := persist.Fingerprint(shipped); fp != want {
				t.Fatalf("replica fingerprint %08x, source shipped %08x", fp, want)
			}
			if err := dst.Promote(rep); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < after; i++ {
				res, err := dst.Observe(id, vec(7, before+i))
				if err != nil {
					t.Fatal(err)
				}
				w := want[i]
				if res.Seq != w.Seq || res.Ready != w.Ready || res.Score != w.Score ||
					res.Nonconformity != w.Nonconformity || res.Threshold != w.Threshold ||
					res.Alert != w.Alert {
					t.Fatalf("post-migration vector %d diverged:\n got %+v\nwant %+v", i, res, w)
				}
			}
			gotStats, ok := dst.StreamStats(id)
			if !ok {
				t.Fatal("adopted stream missing from target stats")
			}
			refStats, _ := ref.StreamStats(id)
			if gotStats.Seq != refStats.Seq || gotStats.Alerts != refStats.Alerts ||
				gotStats.Threshold != refStats.Threshold {
				t.Fatalf("final stats diverged:\n got %+v\nwant %+v", gotStats, refStats)
			}
		})
	}
}

// TestHandoffUnknownStream: handing off a stream that does not exist is
// a clean ErrUnknownStream, not a panic or a hang.
func TestHandoffUnknownStream(t *testing.T) {
	r := newHistRegistry(t, ingest.Config{})
	if _, err := r.Handoff("ghost"); !errors.Is(err, ingest.ErrUnknownStream) {
		t.Fatalf("Handoff(ghost) = %v", err)
	}
}

// TestAdoptSeqConflict: the seq-ordered install rule — adopting state
// older than the local stream's assigned boundary must be refused with
// ErrSeqConflict, and the newer local stream must survive untouched.
func TestAdoptSeqConflict(t *testing.T) {
	r := specRegistry(t, "knn+sw+musigma+al", nil, 0)
	donor := specRegistry(t, "knn+sw+musigma+al", nil, 0)
	for i := 0; i < 10; i++ {
		if _, err := donor.Observe("s", vec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := donor.Handoff("s")
	if err != nil {
		t.Fatal(err)
	}
	// The local twin is further along than the shipped state.
	for i := 0; i < 25; i++ {
		if _, err := r.Observe("s", vec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Adopt("s", snap, nil); !errors.Is(err, ingest.ErrSeqConflict) {
		t.Fatalf("Adopt over a newer stream = %v, want ErrSeqConflict", err)
	}
	st, ok := r.StreamStats("s")
	if !ok || st.Seq != 25 {
		t.Fatalf("local stream damaged by refused adopt: %+v ok=%v", st, ok)
	}
	// The other direction installs: a fresh stream behind the shipped
	// state is replaced.
	r2 := specRegistry(t, "knn+sw+musigma+al", nil, 0)
	for i := 0; i < 3; i++ {
		if _, err := r2.Observe("s", vec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r2.Adopt("s", snap, nil); err != nil {
		t.Fatalf("Adopt over an older stream = %v", err)
	}
	if st, _ := r2.StreamStats("s"); st.Seq != 10 {
		t.Fatalf("adopted stream at seq %d, want 10", st.Seq)
	}
}

// TestWALTailSemantics: WALTail serves records >= from, reports the
// consumed boundary, and distinguishes "rotated away" (ErrWALRotated,
// resync from the snapshot boundary) from merely empty tails. Without a
// store it is ErrNoStore; unknown ids are ErrUnknownStream.
func TestWALTailSemantics(t *testing.T) {
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := newHistRegistry(t, ingest.Config{Store: store})
	for i := 0; i < 8; i++ {
		if _, err := r.Observe("s", vec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, seqDone, err := r.WALTail("s", 3)
	if err != nil {
		t.Fatal(err)
	}
	if seqDone != 8 {
		t.Fatalf("seqDone = %d, want 8", seqDone)
	}
	if len(recs) != 5 || recs[0].Seq != 3 || recs[len(recs)-1].Seq != 7 {
		t.Fatalf("tail from 3 = %d records [%v..], want seqs 3..7", len(recs), recs[0].Seq)
	}
	if recs, _, err := r.WALTail("s", 100); err != nil || len(recs) != 0 {
		t.Fatalf("tail past the end = %d records, %v", len(recs), err)
	}
	if _, _, err := r.WALTail("ghost", 0); !errors.Is(err, ingest.ErrUnknownStream) {
		t.Fatalf("tail of unknown stream = %v", err)
	}
	noStore := newHistRegistry(t, ingest.Config{})
	if _, err := noStore.Observe("s", vec(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := noStore.WALTail("s", 0); !errors.Is(err, ingest.ErrNoStore) {
		t.Fatalf("tail without store = %v", err)
	}
}
