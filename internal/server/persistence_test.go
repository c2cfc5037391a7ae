package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"streamad"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// testVectors builds a deterministic 3-channel stream.
func testVectors(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		t := float64(i)
		out[i] = []float64{
			math.Sin(t / 7),
			math.Cos(t/11) + 0.1*math.Sin(t/3),
			0.5 * math.Sin(t/5),
		}
	}
	return out
}

func persistentConfig(store *persist.Store) Config {
	return Config{
		NewDetector: func(string) (Stepper, error) {
			return streamad.New(streamad.Config{
				Model: streamad.ModelKNN, Task1: streamad.TaskSlidingWindow,
				Task2: streamad.TaskRegular, Score: streamad.ScoreAverage,
				Channels: 3, Window: 8, TrainSize: 30, WarmupVectors: 40, Seed: 3,
			})
		},
		NewThresholder: func(string) score.Thresholder {
			return score.NewQuantileThresholder(0.95)
		},
		Store: store,
	}
}

// observe POSTs one vector and decodes the scoring response.
func observeDirect(t *testing.T, s *Server, id string, vec []float64) ObserveResponse {
	t.Helper()
	body, _ := json.Marshal(map[string][]float64{"vector": vec})
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/observe", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("observe %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	var resp ObserveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("observe %s: bad response (code=%d body=%q): %v", id, rec.Code, rec.Body.String(), err)
	}
	return resp
}

// TestCrashRecovery kills a persistent server mid-stream (snapshot taken
// at step 60, sixty more vectors only in the WAL) and verifies the
// rebuilt server continues with responses identical to a server that
// never died — same scores, thresholds, alerts and step numbers, with no
// re-warmup.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	vecs := testVectors(200)

	// Reference: an uninterrupted, non-persistent server sees all 200.
	ref, err := New(persistentConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	refResp := make([]ObserveResponse, len(vecs))
	for i, v := range vecs {
		refResp[i] = observeDirect(t, ref, "s", v)
	}

	// First life: 120 observes, with a checkpoint after 60 — so recovery
	// exercises snapshot load AND WAL replay of the remaining 60.
	store1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := New(persistentConfig(store1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		got := observeDirect(t, srv1, "s", vecs[i])
		if got != refResp[i] {
			t.Fatalf("persistent server diverged before crash at %d: %+v vs %+v", i, got, refResp[i])
		}
		if i == 59 {
			if err := srv1.reg.SnapshotAll(); err != nil {
				t.Fatalf("SnapshotAll: %v", err)
			}
		}
	}
	// Crash: no srv1.Close(), no final snapshot — just drop the process
	// state and release file handles the way an exit would.
	store1.Close()
	if recs, err := store1.ReadWAL("s"); err != nil || len(recs) != 60 {
		t.Fatalf("expected 60 WAL entries pending, got %d (%v)", len(recs), err)
	}

	// Second life.
	store2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, err := New(persistentConfig(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	restored, warnings, err := srv2.RestoreStreams()
	if err != nil {
		t.Fatalf("RestoreStreams: %v", err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if restored != 1 {
		t.Fatalf("restored %d streams, want 1", restored)
	}

	// The restored stream must pick up at step 120 — warm, not restarting.
	for i := 120; i < 200; i++ {
		got := observeDirect(t, srv2, "s", vecs[i])
		if !got.Ready {
			t.Fatalf("restored server not ready at step %d: it re-warmed", i)
		}
		if got != refResp[i] {
			t.Fatalf("restored server diverged at %d:\n got %+v\nwant %+v", i, got, refResp[i])
		}
	}

	// Stats survived too.
	req := httptest.NewRequest(http.MethodGet, "/v1/streams/s", nil)
	rec := httptest.NewRecorder()
	srv2.ServeHTTP(rec, req)
	var stats StatsResponse
	json.Unmarshal(rec.Body.Bytes(), &stats)
	if stats.Steps != 200 {
		t.Fatalf("restored stats show %d steps, want 200", stats.Steps)
	}
}

// corruptFile flips a byte near the end of a file (inside the payload,
// past the header) so the CRC check must trip.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsCorruptSnapshot verifies damaged state aborts recovery
// loudly instead of half-loading.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, _ := persist.Open(dir)
	srv, _ := New(persistentConfig(store))
	for _, v := range testVectors(50) {
		observeDirect(t, srv, "s", v)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Corrupt the snapshot payload.
	store2, _ := persist.Open(dir)
	defer store2.Close()
	snapPath := dir + "/s.snap"
	corruptFile(t, snapPath)
	srv2, _ := New(persistentConfig(store2))
	defer srv2.Close()
	if _, _, err := srv2.RestoreStreams(); err == nil {
		t.Fatal("RestoreStreams accepted a corrupt snapshot")
	}
}

// TestSnapshotEndpoint checks GET /v1/streams/{id}/snapshot returns a
// parseable checkpoint file and forces a WAL rotation.
func TestSnapshotEndpoint(t *testing.T) {
	store, _ := persist.Open(t.TempDir())
	defer store.Close()
	srv, _ := New(persistentConfig(store))
	defer srv.Close()
	for _, v := range testVectors(50) {
		observeDirect(t, srv, "s", v)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/streams/s/snapshot", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d: %s", rec.Code, rec.Body.String())
	}
	if recs, _ := store.ReadWAL("s"); len(recs) != 0 {
		t.Fatalf("endpoint snapshot left %d WAL entries", len(recs))
	}
	// The body is the on-disk format; the persisted copy must decode to
	// the same sequence number.
	snap, err := store.ReadSnapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 50 {
		t.Fatalf("snapshot seq %d, want 50", snap.Seq)
	}
	if rec.Body.Len() == 0 {
		t.Fatal("empty snapshot body")
	}

	// Unknown stream → 404.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/nope/snapshot", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown stream snapshot: %d", rec.Code)
	}
}

// TestConcurrentObserveDuringSnapshots hammers several streams while the
// background snapshotter runs at an aggressive cadence; run under -race
// this exercises the locking between observes, WAL appends, checkpoint
// writes and rotation. Afterwards the state must still restore cleanly.
func TestConcurrentObserveDuringSnapshots(t *testing.T) {
	dir := t.TempDir()
	store, _ := persist.Open(dir)
	cfg := persistentConfig(store)
	cfg.SnapshotInterval = time.Millisecond
	cfg.SnapshotEvery = 3
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vecs := testVectors(80)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("stream-%d", g)
			for _, v := range vecs {
				// t.Fatalf is not goroutine-safe; report and bail instead.
				body, _ := json.Marshal(map[string][]float64{"vector": v})
				req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/observe", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("observe %s: status %d: %s", id, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	store.Close()

	store2, _ := persist.Open(dir)
	defer store2.Close()
	srv2, _ := New(persistentConfig(store2))
	defer srv2.Close()
	restored, warnings, err := srv2.RestoreStreams()
	if err != nil {
		t.Fatalf("RestoreStreams after concurrent run: %v", err)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings: %v", warnings)
	}
	if restored != 4 {
		t.Fatalf("restored %d streams, want 4", restored)
	}
	for g := 0; g < 4; g++ {
		rec := httptest.NewRecorder()
		srv2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/streams/stream-%d", g), nil))
		var stats StatsResponse
		json.Unmarshal(rec.Body.Bytes(), &stats)
		if stats.Steps != len(vecs) {
			t.Fatalf("stream-%d restored with %d steps, want %d", g, stats.Steps, len(vecs))
		}
	}
}

// TestRecoveryAfterRejectedVector reproduces a stream whose WAL contains
// a wrong-dimension vector (logged before the detector rejected it with a
// 400): recovery must skip it with a warning — matching the live server's
// state — not refuse to start.
func TestRecoveryAfterRejectedVector(t *testing.T) {
	dir := t.TempDir()
	store, _ := persist.Open(dir)
	srv, _ := New(persistentConfig(store))
	vecs := testVectors(60)
	for i, v := range vecs {
		observeDirect(t, srv, "s", v)
		if i == 20 {
			// A malformed producer sends a 2-dim vector into a 3-dim stream.
			body, _ := json.Marshal(map[string][]float64{"vector": {1, 2}})
			req := httptest.NewRequest(http.MethodPost, "/v1/streams/s/observe", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("wrong-dim observe: status %d", rec.Code)
			}
		}
	}
	// Crash without a final snapshot: the bad record is still in the WAL.
	store.Close()

	store2, _ := persist.Open(dir)
	defer store2.Close()
	srv2, _ := New(persistentConfig(store2))
	defer srv2.Close()
	restored, warnings, err := srv2.RestoreStreams()
	if err != nil {
		t.Fatalf("RestoreStreams: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d streams, want 1", restored)
	}
	if len(warnings) != 1 {
		t.Fatalf("want one skipped-record warning, got %v", warnings)
	}
	rec := httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/s", nil))
	var stats StatsResponse
	json.Unmarshal(rec.Body.Bytes(), &stats)
	if stats.Steps != 61 { // 60 good + 1 rejected, same as the live counter
		t.Fatalf("restored steps %d, want 61", stats.Steps)
	}
}

// ensembleConfig builds a server whose streams are 3-member ensembles
// with performance-weighted aggregation, matching persistentConfig's
// base parameters so drift-triggered fine-tunes happen in a 200-step run.
func ensembleConfig(store *persist.Store) Config {
	const spec = "ensemble(knn+sw+regular+avg, arima+sw+regular+avg, knn+ures+regular+avg; agg=perf, prune=-8)"
	return Config{
		NewDetector: func(string) (Stepper, error) {
			return streamad.NewFromSpec(spec, streamad.Config{
				Channels: 3, Window: 8, TrainSize: 30, WarmupVectors: 40, Seed: 3,
			})
		},
		NewThresholder: func(string) score.Thresholder {
			return score.NewQuantileThresholder(0.95)
		},
		Store: store,
	}
}

// TestEnsembleCrashRecovery is TestCrashRecovery for ensemble-backed
// streams: a 3-member ensemble is snapshotted at step 60, killed at 120
// (sixty vectors only in the WAL), restored, and must continue
// bit-identically with a reference ensemble that never died — across
// drift-triggered fine-tunes on both sides of the restore point.
func TestEnsembleCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	vecs := testVectors(200)

	ref, err := New(ensembleConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	refResp := make([]ObserveResponse, len(vecs))
	fineTunesBeforeKill := 0
	for i, v := range vecs {
		refResp[i] = observeDirect(t, ref, "s", v)
		if i < 120 && refResp[i].FineTuned {
			fineTunesBeforeKill++
		}
	}
	if fineTunesBeforeKill == 0 {
		t.Fatal("no fine-tune before the kill point; the recovery path would not cross one")
	}

	store1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := New(ensembleConfig(store1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		got := observeDirect(t, srv1, "s", vecs[i])
		if got != refResp[i] {
			t.Fatalf("ensemble server diverged before crash at %d: %+v vs %+v", i, got, refResp[i])
		}
		if i == 59 {
			if err := srv1.reg.SnapshotAll(); err != nil {
				t.Fatalf("SnapshotAll: %v", err)
			}
		}
	}
	// Crash without Close: member checkpoints live only in the snapshot,
	// steps 60–119 only in the WAL.
	store1.Close()

	store2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, err := New(ensembleConfig(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	restored, warnings, err := srv2.RestoreStreams()
	if err != nil {
		t.Fatalf("RestoreStreams: %v", err)
	}
	if len(warnings) != 0 || restored != 1 {
		t.Fatalf("restored=%d warnings=%v", restored, warnings)
	}

	sawFineTune := false
	for i := 120; i < 200; i++ {
		got := observeDirect(t, srv2, "s", vecs[i])
		if got != refResp[i] {
			t.Fatalf("restored ensemble diverged at %d:\n got %+v\nwant %+v", i, got, refResp[i])
		}
		if got.FineTuned {
			sawFineTune = true
		}
	}
	if !sawFineTune {
		t.Fatal("no fine-tune after the restore point; tighten the schedule")
	}

	// Per-member counters survived the crash: every member has been judged
	// for all 200 steps, not just the post-restore 80.
	stats := nodeStats(t, srv2, "s")
	if stats.Steps != 200 {
		t.Fatalf("restored stats show %d steps, want 200", stats.Steps)
	}
	if len(stats.Members) != 3 {
		t.Fatalf("restored stats show %d members, want 3", len(stats.Members))
	}
	for _, m := range stats.Members {
		if m.Ready <= 80 {
			t.Fatalf("member %d ready_steps=%d: counters restarted instead of restoring", m.Index, m.Ready)
		}
	}
}
