package main

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamad/internal/core"
	"streamad/internal/scenario"
	"streamad/internal/score"
	"streamad/internal/server"
)

// magDetector scores the mean absolute channel magnitude through tanh:
// deterministic, warmup-gated, and cleanly separable — gaussian base
// vectors score ~0.66, 10-sigma burst spikes score ~1.0.
type magDetector struct{ n int }

func (d *magDetector) Step(v []float64) (core.Result, bool) {
	if len(v) == 0 {
		return core.Result{}, false
	}
	d.n++
	sum := 0.0
	for _, x := range v {
		sum += math.Abs(x)
	}
	if d.n <= 8 {
		return core.Result{}, false
	}
	s := math.Tanh(sum / float64(len(v)))
	return core.Result{Score: s, Nonconformity: s}, true
}

func newSoakTarget(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		NewDetector: func(string) (server.Stepper, error) { return &magDetector{}, nil },
		NewThresholder: func(string) score.Thresholder {
			return &score.StaticThresholder{T: 0.9}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// burstSoak is the test workload: clean gaussian base, recurring
// 10-sigma bursts of 10 labelled anomalies every 100 steps.
const burstSoak = "burst(base(corpus=gauss,channels=3,p=0,pool=256),at=50,span=10,period=100,mag=10)"

func soakConfig(addr string) Config {
	return Config{
		Addr:    addr,
		Spec:    burstSoak,
		Seed:    42,
		Streams: 4,
		Rate:    4000, // keep the test fast; pacing still runs
		Batch:   20,
		Vectors: 300,
		Warmup:  40,
		SLO:     SLO{MaxShedRate: -1, MaxErrorRate: -1, Max5xx: -1, MinRecall: -1},
	}
}

// TestRunDetectionDeterministic runs the same soak against two fresh
// servers: the detection and record-accounting sections of the report
// must be identical — that is the report's reproducibility
// contract. Latency differs between runs and is excluded.
func TestRunDetectionDeterministic(t *testing.T) {
	var reps [2]*Report
	for i := range reps {
		ts := newSoakTarget(t)
		rep, err := run(soakConfig(ts.URL))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	a, b := reps[0], reps[1]
	if !reflect.DeepEqual(a.Detection, b.Detection) {
		t.Fatalf("detection sections diverge between identical runs:\n%+v\nvs\n%+v", a.Detection, b.Detection)
	}
	aReq, bReq := a.Requests, b.Requests
	if !reflect.DeepEqual(aReq, bReq) {
		t.Fatalf("request accounting diverges between identical runs:\n%+v\nvs\n%+v", aReq, bReq)
	}

	// Ground truth is exact: evaluated anomalies must equal the summed
	// per-stream ExactAnomalyCount over the post-warmup window.
	sc, err := scenario.Parse(burstSoak)
	if err != nil {
		t.Fatal(err)
	}
	cfg := soakConfig("unused")
	wantAnoms := 0
	for i := 0; i < cfg.Streams; i++ {
		s, err := sc.NewStream(scenario.DeriveSeed(cfg.Seed, "stream/"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		wantAnoms += s.ExactAnomalyCount(cfg.Vectors) - s.ExactAnomalyCount(cfg.Warmup)
	}
	if a.Detection.TrueAnomalies != wantAnoms {
		t.Fatalf("report counts %d true anomalies, ExactAnomalyCount says %d", a.Detection.TrueAnomalies, wantAnoms)
	}

	// The workload is separable by construction, so the detector must
	// actually catch the bursts and the accounting must hold together.
	if a.Detection.Recall < 0.9 {
		t.Fatalf("recall %.4f on 10-sigma bursts; detection plumbing is broken:\n%+v", a.Detection.Recall, a.Detection)
	}
	if a.Requests.RecordsSent != cfg.Streams*cfg.Vectors {
		t.Fatalf("sent %d records, want %d", a.Requests.RecordsSent, cfg.Streams*cfg.Vectors)
	}
	total := a.Requests.RecordsScored + a.Requests.RecordsNotReady +
		a.Requests.RecordsShed + a.Requests.RecordsDropped + a.Requests.RecordErrors
	if total != a.Requests.RecordsSent {
		t.Fatalf("record outcomes (%d) do not add up to records sent (%d): %+v", total, a.Requests.RecordsSent, a.Requests)
	}
	if a.Requests.HTTP5xx != 0 || a.Requests.TransportErrors != 0 || a.Requests.RecordErrors != 0 {
		t.Fatalf("healthy in-process run reported failures: %+v", a.Requests)
	}
	if !a.SLO.Pass {
		t.Fatalf("all gates disabled but SLO failed: %v", a.SLO.Violations)
	}
}

// TestRunAssertsSLOs: impossible gates must surface as violations with
// Pass=false (main turns that into exit code 1).
func TestRunAssertsSLOs(t *testing.T) {
	ts := newSoakTarget(t)
	cfg := soakConfig(ts.URL)
	cfg.SLO = SLO{MaxP99: time.Nanosecond, MaxShedRate: -1, MaxErrorRate: -1, Max5xx: -1, MinRecall: 1.01}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLO.Pass {
		t.Fatal("impossible SLOs passed")
	}
	if len(rep.SLO.Violations) != 2 {
		t.Fatalf("violations = %v, want p99 and recall", rep.SLO.Violations)
	}
	joined := strings.Join(rep.SLO.Violations, "\n")
	for _, want := range []string{"p99 latency", "recall"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations %q missing %q", joined, want)
		}
	}
}

// TestRunTimingFaultsStillAccountExactly: with jitter, lateness and
// reordering in the spec, every record still gets exactly one outcome
// and the ground-truth accounting stays exact — reordering perturbs
// sequence assignment, never the label pairing.
func TestRunTimingFaultsStillAccountExactly(t *testing.T) {
	ts := newSoakTarget(t)
	cfg := soakConfig(ts.URL)
	cfg.Spec = "reorder(jitter(" + burstSoak + ",frac=0.5),p=0.3)"
	cfg.Vectors = 200
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.RecordsSent != cfg.Streams*cfg.Vectors {
		t.Fatalf("sent %d records, want %d", rep.Requests.RecordsSent, cfg.Streams*cfg.Vectors)
	}
	total := rep.Requests.RecordsScored + rep.Requests.RecordsNotReady +
		rep.Requests.RecordsShed + rep.Requests.RecordsDropped + rep.Requests.RecordErrors
	if total != rep.Requests.RecordsSent {
		t.Fatalf("record outcomes (%d) do not add up to records sent (%d)", total, rep.Requests.RecordsSent)
	}
	if rep.Requests.TransportErrors != 0 || rep.Requests.RecordErrors != 0 {
		t.Fatalf("timing faults caused request failures: %+v", rep.Requests)
	}
}

// lagDetector reports the previous vector's magnitude score: every
// alert lands exactly one record after its cause, so exact matching
// misses the first record of each burst and flags the record after the
// last one, while point-adjust with tolerance 1 matches perfectly.
type lagDetector struct {
	n    int
	prev float64
}

func (d *lagDetector) Step(v []float64) (core.Result, bool) {
	if len(v) == 0 {
		return core.Result{}, false
	}
	d.n++
	sum := 0.0
	for _, x := range v {
		sum += math.Abs(x)
	}
	out := d.prev
	d.prev = math.Tanh(sum / float64(len(v)))
	if d.n <= 8 {
		return core.Result{}, false
	}
	return core.Result{Score: out, Nonconformity: out}, true
}

// TestRunTolerancePointAdjust: against the one-step-late detector,
// exact matching charges one false negative (the burst's first record)
// and one false positive (the record after it ends) per burst, while
// tolerance 1 absorbs both and recovers perfect detection.
func TestRunTolerancePointAdjust(t *testing.T) {
	newLagTarget := func() *httptest.Server {
		srv, err := server.New(server.Config{
			NewDetector: func(string) (server.Stepper, error) { return &lagDetector{}, nil },
			// 0.98 sits above the base corpus's noise ceiling (gaussian
			// magnitudes occasionally cross 0.9), so every alert is
			// burst-driven and the only errors left are lag artifacts.
			NewThresholder: func(string) score.Thresholder {
				return &score.StaticThresholder{T: 0.98}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}

	var reps [2]*Report
	for i, tol := range []int{0, 1} {
		cfg := soakConfig(newLagTarget().URL)
		cfg.Tolerance = tol
		rep, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ToleranceVectors != tol {
			t.Fatalf("report tolerance %d, want %d", rep.ToleranceVectors, tol)
		}
		reps[i] = rep
	}
	exact, adj := reps[0].Detection, reps[1].Detection

	// Raw counts are matching-independent.
	if exact.Evaluated != adj.Evaluated || exact.TrueAnomalies != adj.TrueAnomalies || exact.Alerts != adj.Alerts {
		t.Fatalf("raw counts changed with tolerance:\n%+v\nvs\n%+v", exact, adj)
	}
	// Both matchings still classify every evaluated record exactly once.
	for _, d := range []DetectionStats{exact, adj} {
		if got := d.TruePositives + d.FalsePositives + d.FalseNegatives + d.TrueNegatives; got != d.Evaluated {
			t.Fatalf("confusion cells (%d) do not add up to evaluated records (%d): %+v", got, d.Evaluated, d)
		}
	}
	// Exact matching pays for the lag: one FN and one FP per burst.
	if exact.FalseNegatives == 0 || exact.FalsePositives == 0 {
		t.Fatalf("lagged detector scored perfectly under exact matching — lag plumbing broken: %+v", exact)
	}
	// Tolerance 1 covers a one-step lag completely.
	if adj.Recall != 1 || adj.FalseNegatives != 0 || adj.FalsePositives != 0 {
		t.Fatalf("tolerance 1 did not absorb a one-step lag: %+v", adj)
	}
	if adj.Recall <= exact.Recall {
		t.Fatalf("tolerance did not improve recall: exact %.4f vs adjusted %.4f", exact.Recall, adj.Recall)
	}
}

// TestRunMultiTarget: with a comma-separated -addr the fleet round-robins
// requests across both targets (staggered, so the split is exactly even),
// and the report grows a per-target breakdown in -addr order. Single-target
// runs must keep the breakdown omitted.
func TestRunMultiTarget(t *testing.T) {
	a, b := newSoakTarget(t), newSoakTarget(t)
	cfg := soakConfig(" " + a.URL + " , " + b.URL + "/ ") // parsing trims spaces and trailing slashes
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 || rep.Targets[0].URL != a.URL || rep.Targets[1].URL != b.URL {
		t.Fatalf("targets = %+v, want rows for %s then %s", rep.Targets, a.URL, b.URL)
	}
	ra, rb := rep.Targets[0], rep.Targets[1]
	if ra.HTTPRequests+rb.HTTPRequests != rep.Requests.HTTPRequests {
		t.Fatalf("per-target requests %d + %d do not add up to the aggregate %d",
			ra.HTTPRequests, rb.HTTPRequests, rep.Requests.HTTPRequests)
	}
	// 4 workers x 15 requests, staggered round-robin: exactly half each.
	if want := rep.Requests.HTTPRequests / 2; ra.HTTPRequests != want || rb.HTTPRequests != want {
		t.Fatalf("round-robin split %d/%d, want %d/%d", ra.HTTPRequests, rb.HTTPRequests, want, want)
	}
	for _, tr := range rep.Targets {
		if tr.TransportErrors != 0 || tr.HTTP5xx != 0 || tr.RecordErrors != 0 {
			t.Fatalf("healthy target %s reported failures: %+v", tr.URL, tr)
		}
		if tr.Latency.Requests != tr.HTTPRequests {
			t.Fatalf("target %s sampled %d latencies for %d requests", tr.URL, tr.Latency.Requests, tr.HTTPRequests)
		}
	}

	solo, err := run(soakConfig(a.URL))
	if err != nil {
		t.Fatal(err)
	}
	if solo.Targets != nil {
		t.Fatalf("single-target run grew a per-target breakdown: %+v", solo.Targets)
	}
}

// TestRunMultiTargetDeadPeer: when one target of a pair is unreachable,
// every failure lands in that target's row — the healthy node's row stays
// clean, so the report points at the broken peer instead of smearing the
// errors across the fleet.
func TestRunMultiTargetDeadPeer(t *testing.T) {
	live := newSoakTarget(t)
	const dead = "http://127.0.0.1:1"
	cfg := soakConfig(live.URL + "," + dead)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("targets = %+v, want 2 rows", rep.Targets)
	}
	healthy, broken := rep.Targets[0], rep.Targets[1]
	if broken.TransportErrors != broken.HTTPRequests || broken.HTTPRequests == 0 {
		t.Fatalf("dead target: %d transport errors over %d requests, want every request to fail",
			broken.TransportErrors, broken.HTTPRequests)
	}
	if healthy.TransportErrors != 0 || healthy.HTTP5xx != 0 || healthy.RecordErrors != 0 {
		t.Fatalf("failures leaked into the healthy target's row: %+v", healthy)
	}
	if rep.Requests.TransportErrors != broken.TransportErrors {
		t.Fatalf("aggregate transport errors %d, dead target accounts for %d",
			rep.Requests.TransportErrors, broken.TransportErrors)
	}
	if rep.Requests.RecordErrors != broken.RecordErrors || broken.RecordErrors == 0 {
		t.Fatalf("aggregate record errors %d vs dead target's %d — failed batches must charge their target",
			rep.Requests.RecordErrors, broken.RecordErrors)
	}
	// Every record still gets exactly one outcome, errors included.
	total := rep.Requests.RecordsScored + rep.Requests.RecordsNotReady +
		rep.Requests.RecordsShed + rep.Requests.RecordsDropped + rep.Requests.RecordErrors
	if total != rep.Requests.RecordsSent {
		t.Fatalf("record outcomes (%d) do not add up to records sent (%d): %+v", total, rep.Requests.RecordsSent, rep.Requests)
	}
}

// TestRunValidation pins the harness-error paths (exit code 2 in main).
func TestRunValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"no addr":        func(c *Config) { c.Addr = "" },
		"zero streams":   func(c *Config) { c.Streams = 0 },
		"zero rate":      func(c *Config) { c.Rate = 0 },
		"zero batch":     func(c *Config) { c.Batch = 0 },
		"bad spec":       func(c *Config) { c.Spec = "warp(base(corpus=gauss))" },
		"no bound":       func(c *Config) { c.Vectors = 0; c.Duration = 0 },
		"warmup too big": func(c *Config) { c.Warmup = c.Vectors },
		"negative tol":   func(c *Config) { c.Tolerance = -1 },
	} {
		cfg := soakConfig("http://127.0.0.1:1")
		mutate(&cfg)
		if _, err := run(cfg); err == nil {
			t.Errorf("%s: run accepted an invalid config", name)
		}
	}
}

// TestDefaultScenarioParses keeps the flag default honest.
func TestDefaultScenarioParses(t *testing.T) {
	if _, err := scenario.Parse(defaultScenario); err != nil {
		t.Fatal(err)
	}
}
