package ingest_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// verdict is what one vector produced, compared bit for bit.
type verdict struct {
	ready bool
	score uint64
	alert bool
}

func verdictOf(res ingest.Result) verdict {
	return verdict{res.Ready, math.Float64bits(res.Score), res.Alert}
}

var durabilitySpecs = map[string]string{
	"pcb":   "pcb+sw+musigma",
	"arima": "arima+sw+musigma",
	"knn":   "knn+sw+musigma",
	"ens":   "ensemble(usad+sw+musigma, nbeats+sw+musigma; agg=mean)",
	"cas":   "cascade(zscore, arima+sw+musigma+raw; admit=0.2, calib=16, gatewin=8)",
	// One member fine-tunes asynchronously: a trigger every 16 vectors,
	// each fine-tune adopted 32 vectors after its trigger.
	"async": "ensemble(arima+sw+regular, usad+sw+regular+al+async; agg=mean)",
}

var durabilityBase = streamad.Config{Channels: 2, Window: 8, TrainSize: 16, Seed: 1}

func specDetector(t testing.TB, id string) streamad.StreamDetector {
	t.Helper()
	det, err := streamad.NewFromSpec(durabilitySpecs[id], durabilityBase)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// libraryRun is the uninterrupted reference: the stream named id through
// the library and the alert policy, n vectors.
func libraryRun(t *testing.T, id string, seed, n int) []verdict {
	t.Helper()
	det, th := specDetector(t, id), score.NewQuantileThresholder(0.95)
	out := make([]verdict, n)
	for i := range out {
		if res, ok := det.Step(vec(seed, i)); ok {
			out[i] = verdict{true, math.Float64bits(res.Score), th.Alert(res.Score)}
		}
	}
	return out
}

func ladderRegistry(t *testing.T, store *persist.Store) *ingest.Registry {
	t.Helper()
	r, err := ingest.New(ingest.Config{
		NewDetector:    func(id string) (ingest.Stepper, error) { return specDetector(t, id), nil },
		NewThresholder: func(string) score.Thresholder { return score.NewQuantileThresholder(0.95) },
		Store:          store,
		WarmAfter:      time.Hour, // the script drives the ladder by hand
		StreamTTL:      2 * time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCrashAtEveryTierBoundary scripts three streams (a pipeline, an
// ensemble and a screening cascade) around the whole ladder and kills the
// process — copies the state dir's files as they are, page cache and
// all — after every step. Each copy must restore to
// exactly the acknowledged prefix and score the rest of the input
// bit-identically to an uninterrupted run, whatever the ladder had
// deferred at that instant: a warm stream with a dirty WAL, a checkpoint
// written by the eviction pre-pass, a warm stream the timer checkpointed.
// Odd steps also leave a garbage swap file and page files of the old
// layout behind, which Open must delete and nobody may read.
func TestCrashAtEveryTierBoundary(t *testing.T) {
	const total = 120
	ids := []string{"pcb", "ens", "cas"}
	ref := map[string][]verdict{}
	for k, id := range ids {
		ref[id] = libraryRun(t, id, k, total)
	}
	feed := func(r *ingest.Registry, from, to int, what string) {
		t.Helper()
		for k, id := range ids {
			for i := from; i < to; i++ {
				res, err := r.Observe(id, vec(k, i))
				if err != nil || res.Err != nil {
					t.Fatalf("%s: %s step %d: %v / %v", what, id, i, err, res.Err)
				}
				if res.Seq != uint64(i) || verdictOf(res) != ref[id][i] {
					t.Fatalf("%s: %s step %d: seq %d %+v, want seq %d %+v", what, id, i, res.Seq, verdictOf(res), i, ref[id][i])
				}
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "state")
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := ladderRegistry(t, store)
	consumed := 0
	observe := func(n int) func() {
		return func() { feed(r, consumed, consumed+n, "live"); consumed += n }
	}
	far := time.Now().Add(24 * time.Hour)
	demote := func() {
		r.WaitIdle(ids...)
		if n := r.PageIdle(far); n != len(ids) {
			t.Fatalf("PageIdle demoted %d streams, want %d", n, len(ids))
		}
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"observe", observe(60)},
		{"demote", demote},
		{"observe (page-in)", observe(5)},
		{"demote again", demote},
		{"evict past TTL (pre-pass checkpoint)", func() {
			r.WaitIdle(ids...)
			if n := r.EvictIdle(far); n != len(ids) {
				t.Fatalf("EvictIdle evicted %d streams, want %d", n, len(ids))
			}
		}},
		{"observe (cold restore)", observe(5)},
		{"demote a third time", demote},
		{"timer snapshot of the warm streams", func() {
			if err := r.SnapshotAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{"close", func() {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			store.Close()
		}},
	}
	for k, step := range steps {
		step.do()
		crashed := filepath.Join(t.TempDir(), "state")
		copyDir(t, dir, crashed)
		leftovers := []string{"pages.swap", "pcb.page", "x.page", "x.page.tmp"}
		if k%2 == 1 {
			for _, name := range leftovers {
				if err := os.WriteFile(filepath.Join(crashed, name), bytes.Repeat([]byte{0xAB}, 9000), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		store2, err := persist.Open(crashed)
		if err != nil {
			t.Fatalf("after %q: %v", step.name, err)
		}
		for _, name := range leftovers {
			if _, err := os.Stat(filepath.Join(crashed, name)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("after %q: Open left %s behind (stat err %v)", step.name, name, err)
			}
		}
		r2 := ladderRegistry(t, store2)
		if n, warn, err := r2.RestoreStreams(); err != nil || n != len(ids) || len(warn) != 0 {
			t.Fatalf("after %q: restored %d streams, warnings %v, err %v", step.name, n, warn, err)
		}
		for _, id := range ids {
			if info, _ := r2.StreamStats(id); info.Seq != uint64(consumed) || info.Steps != consumed {
				t.Fatalf("after %q: %s restored at seq %d (%d steps), %d vectors were acknowledged",
					step.name, id, info.Seq, info.Steps, consumed)
			}
		}
		feed(r2, consumed, total, "restored after "+step.name)
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
		store2.Close()
	}
}

// TestCrashMidFineTune: a stream whose ensemble has an async member is
// checkpointed while that member's fine-tune is pending, keeps observing
// past the fine-tune's due step — those vectors only in its WAL — and the
// process dies. The restore (the snapshot, which carries the trained model
// and its due step, then the WAL tail, whose replay crosses the due step)
// must score the rest of the input bit-identically to an uninterrupted
// library run.
func TestCrashMidFineTune(t *testing.T) {
	const id, total = "async", 320
	ref := libraryRun(t, id, 0, total)
	feed := func(r *ingest.Registry, from, to int, what string) {
		t.Helper()
		for i := from; i < to; i++ {
			res, err := r.Observe(id, vec(0, i))
			if err != nil || res.Err != nil {
				t.Fatalf("%s step %d: %v / %v", what, i, err, res.Err)
			}
			if verdictOf(res) != ref[i] {
				t.Fatalf("%s step %d: %+v, want %+v", what, i, verdictOf(res), ref[i])
			}
		}
	}
	pending := func(r *ingest.Registry) bool {
		info, ok := r.StreamStats(id)
		return ok && info.FineTune.InFlight
	}
	dir := filepath.Join(t.TempDir(), "state")
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := ladderRegistry(t, store)
	at := 0
	for ; !pending(r); at++ {
		if at == total/2 {
			t.Fatal("no asynchronous fine-tune was launched")
		}
		feed(r, at, at+1, "live")
	}
	feed(r, at, at+5, "live")
	at += 5
	if err := r.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if !pending(r) {
		t.Fatal("the checkpoint must be taken while the fine-tune is pending")
	}
	feed(r, at, at+40, "live") // past the due step, logged in the WAL only
	at += 40
	if pending(r) {
		t.Fatal("the fine-tune is still pending 45 vectors after its trigger")
	}
	crashed := filepath.Join(t.TempDir(), "state")
	copyDir(t, dir, crashed)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, err := persist.Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := ladderRegistry(t, store2)
	defer r2.Close()
	if n, warn, err := r2.RestoreStreams(); err != nil || n != 1 || len(warn) != 0 {
		t.Fatalf("restored %d streams, warnings %v, err %v", n, warn, err)
	}
	if info, _ := r2.StreamStats(id); info.Steps != at {
		t.Fatalf("restored at %d steps, %d vectors were acknowledged", info.Steps, at)
	}
	feed(r2, at, total, "restored")
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadersCopyOutOfTheirInput pins what lets the registry decode from
// a borrowed buffer and hand it straight to the next borrower: Load,
// PageIn and the thresholder's UnmarshalBinary keep no reference into
// their input. Each is fed from a scratch buffer that is then overwritten
// with 0xFF; the next 200 results must equal an untouched twin's.
func TestLoadersCopyOutOfTheirInput(t *testing.T) {
	scribbled := func(blob []byte, load func([]byte) error) {
		t.Helper()
		buf := append([]byte(nil), blob...)
		if err := load(buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	for id := range durabilitySpecs {
		twin, twinTh := specDetector(t, id), score.NewQuantileThresholder(0.95)
		for i := 0; i < 150; i++ {
			if res, ok := twin.Step(vec(9, i)); ok {
				twinTh.Alert(res.Score)
			}
		}
		state, err := twin.(ingest.Checkpointer).Save()
		if err != nil {
			t.Fatal(err)
		}
		thState, err := twinTh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		det, th := specDetector(t, id), score.NewQuantileThresholder(0.95)
		scribbled(state, det.(ingest.Checkpointer).Load)
		scribbled(thState, th.UnmarshalBinary)
		pager := det.(core.Pager)
		page, err := pager.PageOut()
		if err != nil {
			t.Fatal(err)
		}
		scribbled(page, pager.PageIn)
		for i := 150; i < 350; i++ {
			want, wantOK := twin.Step(vec(9, i))
			got, ok := det.Step(vec(9, i))
			if ok != wantOK || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Fatalf("%s step %d: %v/%v, want %v/%v", id, i, got.Score, ok, want.Score, wantOK)
			}
			if ok && (th.Alert(got.Score) != twinTh.Alert(want.Score) || th.Threshold() != twinTh.Threshold()) {
				t.Fatalf("%s step %d: alert policies diverged", id, i)
			}
		}
	}
}

// TestKeptBlobsAreNotBorrowed: Registry.Snapshot, Handoff and
// EncodeSnapshotFile hand their blobs to callers who keep them, so they
// must not come from the scratch list — every byte has to survive later
// checkpoints, page-ins and restores of other streams, which reuse it.
func TestKeptBlobsAreNotBorrowed(t *testing.T) {
	store, err := persist.Open(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := ladderRegistry(t, store)
	defer r.Close()
	ids := []string{"pcb", "arima", "knn"}
	observe := func(id string, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := r.Observe(id, vec(2, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		observe(id, 0, 60)
	}
	far := time.Now().Add(24 * time.Hour)
	churn := func(from int) { // every borrowing path, on the other two streams
		t.Helper()
		for _, id := range ids[1:] {
			observe(id, from, from+5)
		}
		if err := r.SnapshotAll(); err != nil {
			t.Fatal(err)
		}
		r.PageIdle(far)
		for _, id := range ids[1:] {
			observe(id, from+5, from+10)
		}
		r.PageIdle(far)
		r.EvictIdle(far)
		for _, id := range ids[1:] {
			observe(id, from+10, from+15)
		}
	}

	snap, err := r.Snapshot("pcb")
	if err != nil {
		t.Fatal(err)
	}
	file, err := persist.EncodeSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	keptDet, keptTh, keptFile := bytes.Clone(snap.Detector), bytes.Clone(snap.Threshold), bytes.Clone(file)
	churn(60)
	if !bytes.Equal(snap.Detector, keptDet) || !bytes.Equal(snap.Threshold, keptTh) || !bytes.Equal(file, keptFile) {
		t.Fatal("a snapshot handed to a caller changed under later checkpoints")
	}

	observe("pcb", 60, 70) // evicted by the churn: restored, then dirty again
	handed, err := r.Handoff("pcb")
	if err != nil {
		t.Fatal(err)
	}
	keptDet, keptTh = bytes.Clone(handed.Detector), bytes.Clone(handed.Threshold)
	churn(75)
	if !bytes.Equal(handed.Detector, keptDet) || !bytes.Equal(handed.Threshold, keptTh) {
		t.Fatal("a handoff's snapshot changed under later checkpoints")
	}
	if _, err := r.Adopt("pcb", handed, nil); err != nil {
		t.Fatalf("the kept handoff state no longer loads: %v", err)
	}
}
