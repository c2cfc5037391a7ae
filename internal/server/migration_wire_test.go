package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamad"
	"streamad/internal/cluster"
	"streamad/internal/core"
	"streamad/internal/persist"
	"streamad/internal/score"
)

// wireRow is one stream of TestMigrationOverTheWire: the detector spec
// it runs and how many vectors it takes on the source before the
// rebalancer hands it over (0: up to and past its first async trigger).
type wireRow struct {
	name, spec string
	before     int
	warm       bool
	refused    bool
}

// refusingDetector is a detector whose Load rejects every checkpoint:
// the target build of a migration it cannot accept.
type refusingDetector struct{ streamad.StreamDetector }

func (refusingDetector) Load([]byte) error { return errors.New("this build refuses the checkpoint") }

// TestMigrationOverTheWire boots two loopback nodes. A takes its streams
// while B is down, so A owns them all; when B comes up, A's own
// rebalancer migrates every stream the full ring gives B. Each migrated
// stream's next results, observed alternately through A (forwarded) and
// B, must be bit-identical to a library twin's, with contiguous steps.
// One stream B's factory cannot load: that migration is refused and A
// must keep the stream exactly as it was.
func TestMigrationOverTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two HTTP servers with live probe, rebalance and standby loops")
	}
	rows := []wireRow{
		{name: "warm", spec: "knn+sw+musigma+al", before: 80, warm: true},
		{name: "knn", spec: "knn+sw+musigma+al", before: 96},
		{name: "ensemble", spec: "ensemble(knn+sw+regular+avg, arima+sw+regular+avg, knn+ures+regular+avg; agg=perf, prune=-8)", before: 96},
		{name: "cascade", spec: "cascade(zscore, knn; admit=0.1, calib=64, gatewin=32)", before: 96},
		{name: "async", spec: "knn+sw+regular+al+async"},
		{name: "refused", spec: "knn+sw+musigma+al", before: 40, refused: true},
	}
	const after = 48
	base := streamad.Config{Channels: 3, Window: 8, TrainSize: 16, Seed: 1}
	specOf := func(id string) string {
		for _, row := range rows {
			if strings.HasPrefix(id, row.name+"-") {
				return row.spec
			}
		}
		return rows[1].spec
	}

	var (
		urls  [2]string
		srvs  [2]*Server
		https [2]*http.Server
		lns   [2]net.Listener
	)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range srvs {
		store, err := persist.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			NewDetector: func(id string) (Stepper, error) {
				det, err := streamad.NewFromSpec(specOf(id), base)
				if err == nil && i == 1 && strings.HasPrefix(id, "refused-") {
					return refusingDetector{det}, nil
				}
				return det, err
			},
			NewThresholder: func(string) score.Thresholder { return score.NewQuantileThresholder(0.95) },
			Store:          store,
			SnapshotEvery:  40,
			Logf:           t.Logf,
			Cluster: &cluster.Config{
				Self: urls[i], Peers: urls[:],
				ProbeInterval: 50 * time.Millisecond, ProbeFailures: 2,
				RebalanceInterval: 100 * time.Millisecond, StandbyInterval: 50 * time.Millisecond,
			},
		}
		if i == 0 {
			cfg.WarmAfter = 400 * time.Millisecond
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		https[i] = &http.Server{Handler: srv}
		i := i
		t.Cleanup(func() {
			https[i].Close()
			srvs[i].Close()
			store.Close()
		})
	}
	// A is up; B's listener accepts but nothing answers until B starts,
	// so A's probes time out and A marks B down.
	go https[0].Serve(lns[0])
	srvs[0].StartCluster()
	waitFor(t, 10*time.Second, "A to mark B down", func() bool {
		return srvs[0].ClusterNode().Stats().RingNodes == 1
	})

	// Every row's stream is one the full ring gives B (B's node was built
	// with an all-alive ring), and its twin is the same library detector
	// and alert policy stepped the way the registry steps a stream.
	ids := make([]string, len(rows))
	wants := make([][]ObserveResponse, len(rows))
	vecs := testVectors(400)
	for r, row := range rows {
		for i := 0; ; i++ {
			if id := fmt.Sprintf("%s-%d", row.name, i); srvs[1].ClusterNode().Owner(id) == urls[1] {
				ids[r] = id
				break
			}
		}
		det, err := streamad.NewFromSpec(row.spec, base)
		if err != nil {
			t.Fatal(err)
		}
		th := score.NewQuantileThresholder(0.95)
		want := make([]ObserveResponse, len(vecs))
		for i, v := range vecs {
			want[i] = ObserveResponse{Step: i}
			if res, ready := det.Step(v); ready {
				want[i].Ready = true
				want[i].Score = core.FiniteOrZero(res.Score)
				want[i].Nonconformity = core.FiniteOrZero(res.Nonconformity)
				want[i].FineTuned = res.FineTuned
				want[i].Source = res.Source
				want[i].Threshold = core.FiniteOrZero(th.Threshold())
				want[i].Alert = th.Alert(res.Score)
			}
		}
		if row.before == 0 {
			// Hand the async stream over ten steps after its first
			// fine-tune trigger, well before the due step 32 later.
			for i := range want {
				if want[i].FineTuned {
					rows[r].before = i + 11
					break
				}
			}
			if rows[r].before == 0 || rows[r].before+after > len(vecs) {
				t.Fatalf("async twin triggered no fine-tune early enough (handoff at %d)", rows[r].before)
			}
		}
		wants[r] = want
	}
	check := func(r, i int, got ObserveResponse) {
		t.Helper()
		w := wants[r][i]
		got.Node = ""
		if got.Step != w.Step || got.Ready != w.Ready || got.Alert != w.Alert ||
			got.FineTuned != w.FineTuned || got.Source != w.Source || got.Dropped ||
			math.Float64bits(got.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(got.Nonconformity) != math.Float64bits(w.Nonconformity) ||
			math.Float64bits(got.Threshold) != math.Float64bits(w.Threshold) {
			t.Fatalf("%s vector %d: got %+v, twin %+v", rows[r].name, i, got, w)
		}
	}

	// Feed every stream on A, the warm one first so it pages out before
	// the rest are fed.
	for r, row := range rows {
		for i := 0; i < row.before; i++ {
			check(r, i, observeDirect(t, srvs[0], ids[r], vecs[i]))
		}
		if row.warm {
			waitFor(t, 10*time.Second, "the warm row to page out", func() bool {
				st, live := statsLocal(t, srvs[0], ids[r])
				return live && st.Tier == "warm"
			})
		}
	}
	refused := len(rows) - 1
	before := fetchSnapshot(t, srvs[0], ids[refused])

	// B comes up; A's rebalancer hands over every stream the ring now
	// gives B.
	go https[1].Serve(lns[1])
	srvs[1].StartCluster()
	for r, row := range rows[:refused] {
		waitFor(t, 20*time.Second, row.name+" to migrate to B", func() bool {
			st, live := statsLocal(t, srvs[1], ids[r])
			if !live || st.Steps != row.before {
				return false
			}
			_, still := statsLocal(t, srvs[0], ids[r])
			return !still
		})
		for i := row.before; i < row.before+after; i++ {
			got := observeDirect(t, srvs[i%2], ids[r], vecs[i])
			if got.Node != urls[1] {
				t.Fatalf("%s vector %d scored on %q, want the new owner %s", row.name, i, got.Node, urls[1])
			}
			check(r, i, got)
		}
	}
	if got := srvs[0].ClusterNode().Stats().MigrationsOutOK; got < uint64(refused) {
		t.Fatalf("A counted %d successful migrations out, want at least %d", got, refused)
	}

	// The refused stream: A counts the failure and still holds the stream
	// at the same seq, with the same checkpoint bytes.
	waitFor(t, 20*time.Second, "A to count the refused migration", func() bool {
		return srvs[0].ClusterNode().Stats().MigrationsOutErr > 0
	})
	waitFor(t, 10*time.Second, "A to hold the refused stream", func() bool {
		st, live := statsLocal(t, srvs[0], ids[refused])
		return live && st.Steps == rows[refused].before
	})
	var again []byte
	waitFor(t, 10*time.Second, "A to serve the refused stream's snapshot", func() bool {
		again = trySnapshot(srvs[0], ids[refused])
		return again != nil
	})
	if !bytes.Equal(again, before) {
		t.Fatalf("refused stream's snapshot changed across the failed migration (%d vs %d bytes)", len(again), len(before))
	}
}

// trySnapshot GETs a stream's checkpoint file from s, nil unless 200.
func trySnapshot(s *Server, id string) []byte {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/"+id+"/snapshot", nil))
	if rec.Code != http.StatusOK {
		return nil
	}
	body, _ := io.ReadAll(rec.Body)
	return body
}

// fetchSnapshot is trySnapshot that must succeed.
func fetchSnapshot(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	body := trySnapshot(s, id)
	if body == nil {
		t.Fatalf("snapshot of %s not served", id)
	}
	return body
}
