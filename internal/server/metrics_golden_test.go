package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamad/internal/cluster"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/pool"
	"streamad/internal/score"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_*.golden from the current /metrics output")

// The golden files were captured from the hand-written exposition (the
// commit before the metrics registry) and pin /metrics byte for byte:
// sample lines, label order, family order and which families a state
// renders at all. metrics_empty.golden alone was edited after capture:
// the sample-less steps/ready_steps/alerts headers it used to carry fall
// under the registry's uniform no-samples rule.

// Capability fakes: each wraps the 2-dim stubDetector and reports fixed
// statistics through the core.Statser facet, so a stream's series depend
// only on how often it stepped.
type memberDet struct{ stubDetector }

func (d *memberDet) Stats() core.NodeStats {
	return core.NodeStats{Members: []core.MemberStat{
		{Index: 0, Label: "knn+sw+regular+avg", Ready: d.steps, FineTunes: 2, Agreement: -3, Weight: 0.625},
		{Index: 1, Label: `odd "spec"`, Ready: 1, Agreement: 4, Weight: 0.375},
		{Index: 2, Label: "arima+sw+regular+avg", Disabled: true},
	}}
}

type cascadeDet struct{ stubDetector }

func (d *cascadeDet) Stats() core.NodeStats {
	return core.NodeStats{Cascade: &core.CascadeStats{
		GateLabel: "zscore", HeavyLabels: []string{"knn+sw+musigma+al"},
		Steps: d.steps, Screened: 70, Admitted: 10, Forwarded: 20,
		AdmitTarget: 0.1, AdmissionRate: 0.125, HeavyRate: 0.3,
		CalibN: 64, CalibCap: 64, Screening: true,
	}}
}

type fineTuneDet struct{ stubDetector }

func (d *fineTuneDet) FineTuneStats() core.FineTuneStats {
	return core.FineTuneStats{
		Async: true, InFlight: true, Launched: 5, Skipped: 2, AdoptWaits: 3, Completed: 4,
		LastSeconds: 0.25, TotalSeconds: 6.75,
		// ≤1ms, 2× ≤10ms, one slower than the last bound (overflow).
		Buckets: []uint64{0, 1, 0, 2, 0, 0, 0, 0, 0, 1},
	}
}

// compositeDet is every capability at once, reported by the root node
// alone.
type compositeDet struct {
	memberDet
	cascade  cascadeDet
	fineTune fineTuneDet
}

func (d *compositeDet) Stats() core.NodeStats {
	return core.NodeStats{Members: d.memberDet.Stats().Members, Cascade: d.cascade.Stats().Cascade}
}
func (d *compositeDet) FineTuneStats() core.FineTuneStats { return d.fineTune.FineTuneStats() }

// leafNode is a child the stats walk finds nothing on: a core.Node (the
// nil embedded one is never called — the walk only asks for Stats and
// Children) without the facet.
type leafNode struct{ core.Node }

func (leafNode) Children() []core.Node { return nil }

// statsNode is a child that reports fixed statistics.
type statsNode struct {
	leafNode
	stats core.NodeStats
}

func (n statsNode) Stats() core.NodeStats { return n.stats }

// nestedDet is shaped like cascade(zscore, ensemble(a, b, c)): the root
// reports the cascade counters, child 0 (the gate) nothing, and child 1
// the member rows.
type nestedDet struct{ cascadeDet }

func (d *nestedDet) Children() []core.Node {
	members := memberDet{stubDetector{steps: d.steps}}
	return []core.Node{leafNode{}, statsNode{stats: members.Stats()}}
}

// gatedDet blocks its first Step until released, so vectors enqueued
// meanwhile coalesce into one known-size follow-up batch.
type gatedDet struct {
	stubDetector
	entered chan struct{}
	release chan struct{}
}

func (d *gatedDet) Step(s []float64) (core.Result, bool) {
	if d.steps == 0 {
		d.entered <- struct{}{}
		<-d.release
	}
	return d.stubDetector.Step(s)
}

// goldenConfig routes stream ids to the fakes by their first letter.
func goldenConfig(gate *gatedDet) Config {
	return Config{
		NewDetector: func(id string) (Stepper, error) {
			switch id[0] {
			case 'e':
				return &memberDet{stubDetector{dim: 2}}, nil
			case 'c':
				return &cascadeDet{stubDetector{dim: 2}}, nil
			case 'f':
				return &fineTuneDet{stubDetector{dim: 2}}, nil
			case 'x':
				return &compositeDet{memberDet: memberDet{stubDetector{dim: 2}}}, nil
			case 'n':
				return &nestedDet{cascadeDet{stubDetector{dim: 2}}}, nil
			case 'g':
				return gate, nil
			}
			return &stubDetector{dim: 2}, nil
		},
		NewThresholder: func(string) score.Thresholder { return &score.StaticThresholder{T: 0.5} },
		Shards:         2,
		QueueDepth:     256,
	}
}

// step feeds n quiet vectors and one alerting one straight into the
// registry: no HTTP request, so the observe-latency histogram only holds
// what a state puts there on purpose.
func step(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	for i := 0; i <= n; i++ {
		v := []float64{0, 0}
		if i == n {
			v[0] = 7
		}
		if _, err := s.reg.Observe(id, v); err != nil {
			t.Fatal(err)
		}
	}
}

// observeLatency records one request duration as handleObserve would.
func observeLatency(s *Server, d time.Duration) { s.obsLat.Observe(int64(d)) }

func checkGolden(t *testing.T, s *Server, name string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	path := filepath.Join("testdata", "metrics_"+name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Errorf("/metrics differs from %s\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

func newGoldenServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	score := pool.NewScoring(3)
	t.Cleanup(score.Close)
	cfg.ScorePool = score
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestMetricsGolden(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		checkGolden(t, newGoldenServer(t, goldenConfig(nil)), "empty")
	})

	t.Run("plain", func(t *testing.T) {
		s := newGoldenServer(t, goldenConfig(nil))
		for i, id := range []string{"plain", `a"quote`, "b\nline", "ünï/cødé"} {
			step(t, s, id, i+1)
		}
		checkGolden(t, s, "plain")
	})

	// Every conditional per-stream family, a trainer pool, a batch-size
	// histogram with a multi-vector and an overflow pass, and a latency
	// histogram with first-bucket, boundary, mid and overflow samples.
	t.Run("composite", func(t *testing.T) {
		gate := &gatedDet{stubDetector: stubDetector{dim: 2}, entered: make(chan struct{}, 1), release: make(chan struct{})}
		cfg := goldenConfig(gate)
		trainer := pool.NewTrainer(2)
		t.Cleanup(trainer.Close)
		cfg.TrainerPool = trainer
		s := newGoldenServer(t, cfg)
		for i, id := range []string{"plain", "ens-1", "ens-2", "cas-1", "ft-1", "x-all"} {
			step(t, s, id, i+2)
		}
		first, err := s.reg.Enqueue("gated", []float64{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		<-gate.entered
		var last <-chan ingest.Result
		for i := 0; i < 130; i++ {
			ack, err := s.reg.Enqueue("gated", []float64{0, 0})
			if err != nil {
				t.Fatal(err)
			}
			last = ack.Done
		}
		close(gate.release)
		<-first.Done
		<-last
		// The pooled dispatcher task is counted after its last result is
		// delivered; wait for the counter so the scrape is stable.
		for deadline := time.Now().Add(5 * time.Second); s.reg.Stats().ScorePool.Completed != 1; {
			if time.Now().After(deadline) {
				t.Fatal("pooled dispatch never completed")
			}
			time.Sleep(time.Millisecond)
		}
		for _, d := range []time.Duration{
			100 * time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond,
			3 * time.Millisecond, 700 * time.Millisecond, 4 * time.Second,
		} {
			observeLatency(s, d)
		}
		checkGolden(t, s, "composite")
		// The adopt waits are a field of the stream's stats, not a family.
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/ft-1", nil))
		if !strings.Contains(rec.Body.String(), `"adopt_waits":3,`) {
			t.Errorf("GET /v1/streams/ft-1 lacks fine_tune.adopt_waits: %s", rec.Body)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		cfg := goldenConfig(nil)
		cfg.Cluster = &cluster.Config{
			Self: "http://b.test", Peers: []string{"http://b.test", "http://a.test"},
			ProbeInterval: time.Hour, RebalanceInterval: -1, StandbyInterval: -1,
		}
		s := newGoldenServer(t, cfg)
		step(t, s, "plain", 1)
		s.node.NoteForwardedIn(7)
		s.node.NoteMigrationIn(true)
		s.node.NoteMigrationIn(false)
		s.node.NoteMigrationIn(false)
		checkGolden(t, s, "cluster")
	})

	// A two-level tree beside a root ensemble and a root cascade: the
	// nested member rows carry their child path in the member label.
	t.Run("nested", func(t *testing.T) {
		s := newGoldenServer(t, goldenConfig(nil))
		for i, id := range []string{"nest-1", "ens-1", "cas-1"} {
			step(t, s, id, i+2)
		}
		checkGolden(t, s, "nested")
	})

	// Cap 2 over five streams: the three past the cut, composite one
	// included, lose every per-stream series and are counted instead.
	t.Run("cap", func(t *testing.T) {
		cfg := goldenConfig(nil)
		cfg.MetricsStreamCap = 2
		s := newGoldenServer(t, cfg)
		for _, id := range []string{"x-all", "ens-1", "cas-1", "plain", "ft-1"} {
			step(t, s, id, 1)
		}
		checkGolden(t, s, "cap")
	})
}
