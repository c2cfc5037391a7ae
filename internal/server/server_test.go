package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamad"
	"streamad/internal/core"
	"streamad/internal/score"
)

// stubDetector is a minimal Stepper: ready after 2 steps, high
// score when the first element exceeds 1; panics on wrong dimensionality.
type stubDetector struct {
	dim   int
	steps int
}

func (d *stubDetector) Step(s []float64) (core.Result, bool) {
	if len(s) != d.dim {
		panic("dim mismatch")
	}
	d.steps++
	if d.steps <= 2 {
		return core.Result{}, false
	}
	v := 0.05
	if s[0] > 1 {
		v = 0.95
	}
	return core.Result{Score: v, Nonconformity: v}, true
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := New(Config{
		NewDetector: func(string) (Stepper, error) { return &stubDetector{dim: 2}, nil },
		NewThresholder: func(string) score.Thresholder {
			return &score.StaticThresholder{T: 0.5}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func observe(t *testing.T, ts *httptest.Server, stream string, vec []float64) (ObserveResponse, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"vector": vec})
	resp, err := http.Post(ts.URL+"/v1/streams/"+stream+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ObserveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestObserveLifecycle(t *testing.T) {
	ts := newTestServer(t)
	// Warmup steps report not-ready.
	for i := 0; i < 2; i++ {
		out, code := observe(t, ts, "dev1", []float64{0, 0})
		if code != http.StatusOK || out.Ready {
			t.Fatalf("warmup step %d: code=%d ready=%v", i, code, out.Ready)
		}
	}
	// Normal step: ready, no alert.
	out, _ := observe(t, ts, "dev1", []float64{0, 0})
	if !out.Ready || out.Alert || out.Score != 0.05 {
		t.Fatalf("normal = %+v", out)
	}
	// Anomalous step: alert.
	out, _ = observe(t, ts, "dev1", []float64{9, 0})
	if !out.Alert || out.Score != 0.95 {
		t.Fatalf("anomaly = %+v", out)
	}
	if out.Threshold != 0.5 {
		t.Fatalf("threshold = %v", out.Threshold)
	}
}

func TestStatsAndList(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		observe(t, ts, "a", []float64{0, 0})
	}
	observe(t, ts, "a", []float64{5, 0})
	observe(t, ts, "b", []float64{0, 0})

	resp, err := http.Get(ts.URL + "/v1/streams/a")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Steps != 6 || stats.Ready != 4 || stats.Alerts != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var list []streamListEntry
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != "a" || list[1].ID != "b" {
		t.Fatalf("list = %+v", list)
	}
}

func TestObserveErrors(t *testing.T) {
	ts := newTestServer(t)
	// Bad JSON.
	resp, err := http.Post(ts.URL+"/v1/streams/x/observe", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d", resp.StatusCode)
	}
	// Empty vector.
	if _, code := observe(t, ts, "x", nil); code != http.StatusBadRequest {
		t.Fatalf("empty vector = %d", code)
	}
	// Wrong dimensionality (detector panics → 400).
	observe(t, ts, "x", []float64{1, 2})
	if _, code := observe(t, ts, "x", []float64{1, 2, 3}); code != http.StatusBadRequest {
		t.Fatalf("dim mismatch = %d", code)
	}
	// Unknown stream stats.
	resp, err = http.Get(ts.URL + "/v1/streams/never-seen")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream = %d", resp.StatusCode)
	}
	// Unknown route and method.
	resp, err = http.Get(ts.URL + "/v1/streams/x/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET observe = %d", resp.StatusCode)
	}
}

func TestStreamLimit(t *testing.T) {
	srv, err := New(Config{
		NewDetector: func(string) (Stepper, error) { return &stubDetector{dim: 1}, nil },
		MaxStreams:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusServiceUnavailable} {
		body, _ := json.Marshal(map[string]interface{}{"vector": []float64{1}})
		resp, err := http.Post(fmt.Sprintf("%s/v1/streams/s%d/observe", ts.URL, i), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("stream %d = %d, want %d", i, resp.StatusCode, want)
		}
	}
}

func TestFactoryError(t *testing.T) {
	srv, err := New(Config{
		NewDetector: func(string) (Stepper, error) { return nil, errors.New("boom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body, _ := json.Marshal(map[string]interface{}{"vector": []float64{1}})
	resp, err := http.Post(ts.URL+"/v1/streams/x/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("factory error = %d", resp.StatusCode)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("NewDetector required")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 4; i++ {
		observe(t, ts, "m1", []float64{0, 0})
	}
	observe(t, ts, "m1", []float64{7, 0}) // alert
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, line := range []string{
		`streamad_steps_total{stream="m1"} 5`,
		`streamad_ready_steps_total{stream="m1"} 3`,
		`streamad_alerts_total{stream="m1"} 1`,
	} {
		if !bytes.Contains([]byte(body), []byte(line)) {
			t.Fatalf("metrics missing %q in:\n%s", line, body)
		}
	}
}

// parseSample splits one Prometheus exposition sample line into its
// metric name and label map, unquoting label values with the inverse of
// the %q encoding the server uses.
func parseSample(line string) (name string, labels map[string]string, err error) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		// Label-less sample: "name value".
		name, _, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			return "", nil, fmt.Errorf("malformed sample %q", line)
		}
		return name, map[string]string{}, nil
	}
	name = line[:brace]
	labels = make(map[string]string)
	rest := line[brace+1:]
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("no key=value in %q", rest)
		}
		key := rest[:eq]
		quoted, e := strconv.QuotedPrefix(rest[eq+1:])
		if e != nil {
			return "", nil, fmt.Errorf("bad quoting after %q in %q: %v", key, line, e)
		}
		val, e := strconv.Unquote(quoted)
		if e != nil {
			return "", nil, e
		}
		labels[key] = val
		rest = rest[eq+1+len(quoted):]
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "} ") {
			return name, labels, nil
		}
		return "", nil, fmt.Errorf("malformed label block tail %q in %q", rest, line)
	}
}

// TestMetricsExposition asserts the /metrics output is well-formed
// Prometheus text: every sample's family is introduced by a HELP/TYPE
// pair, stream labels come out sorted, and ids containing quotes and
// newlines are escaped so they survive a parse round trip.
func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t)
	ids := []string{"plain", `a"quote`, "b\nline"}
	for _, id := range ids {
		for i := 0; i < 3; i++ {
			body, _ := json.Marshal(map[string]interface{}{"vector": []float64{0, 0}})
			resp, err := http.Post(ts.URL+"/v1/streams/"+url.PathEscape(id)+"/observe", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("observe %q = %d", id, resp.StatusCode)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	helps := map[string]bool{}
	types := map[string]bool{}
	streamsPerFamily := map[string][]string{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if h, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(h, " ")
			if text == "" {
				t.Errorf("HELP without text: %q", line)
			}
			helps[name] = true
			continue
		}
		if ty, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(ty, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("TYPE with unknown kind: %q", line)
			}
			types[name] = true
			continue
		}
		name, labels, err := parseSample(line)
		if err != nil {
			t.Fatalf("unparseable sample: %v", err)
		}
		// Histogram _bucket/_sum/_count samples hang off the family name.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && types[f] {
				family = f
				break
			}
		}
		if !helps[family] || !types[family] {
			t.Errorf("sample %q precedes its HELP/TYPE pair", line)
		}
		if strings.HasPrefix(name, "streamad_ingest_") ||
			strings.HasPrefix(name, "streamad_tier_") ||
			strings.HasPrefix(name, "streamad_pool_") ||
			strings.HasPrefix(name, "streamad_metrics_") {
			continue // process-level families carry no stream label
		}
		stream, ok := labels["stream"]
		if !ok {
			t.Errorf("sample without stream label: %q", line)
		}
		streamsPerFamily[name] = append(streamsPerFamily[name], stream)
	}
	for fam, streams := range streamsPerFamily {
		if !sort.StringsAreSorted(streams) {
			t.Errorf("family %s streams not sorted: %q", fam, streams)
		}
		want := append([]string{}, ids...)
		sort.Strings(want)
		if fmt.Sprint(streams) != fmt.Sprint(want) {
			t.Errorf("family %s streams = %q, want %q (quote/newline ids must round-trip)", fam, streams, want)
		}
	}
	if len(streamsPerFamily) != 3 {
		t.Fatalf("expected 3 sample families, got %v", streamsPerFamily)
	}
}

// infThresholder always reports a non-finite boundary, like the quantile
// policy before it has seen enough scores.
type infThresholder struct{}

func (infThresholder) Alert(float64) bool { return false }
func (infThresholder) Threshold() float64 { return math.Inf(1) }

// nanMemberDet is a Stepper whose member stats carry non-finite floats.
type nanMemberDet struct{ stubDetector }

func (d *nanMemberDet) Stats() core.NodeStats {
	return core.NodeStats{Members: []core.MemberStat{
		{Index: 0, Label: "stub+sw+regular+avg", Ready: d.steps, Weight: math.NaN(), LastScore: math.Inf(-1)},
	}}
}

// TestStatsGuardsNonFiniteValues is the regression test for the
// stats-endpoint counterpart of the +Inf-threshold observe bug: a
// non-finite threshold, member weight or member score must never abort
// the JSON encoding of GET /v1/streams/{id}.
func TestStatsGuardsNonFiniteValues(t *testing.T) {
	srv, err := New(Config{
		NewDetector:    func(string) (Stepper, error) { return &nanMemberDet{stubDetector{dim: 2}}, nil },
		NewThresholder: func(string) score.Thresholder { return infThresholder{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body, _ := json.Marshal(map[string]interface{}{"vector": []float64{0, 0}})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/streams/s/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/streams/s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) == 0 {
		t.Fatal("empty stats body: non-finite value killed the encoder")
	}
	if strings.Contains(string(raw), "Inf") || strings.Contains(string(raw), "NaN") {
		t.Fatalf("non-finite value leaked into JSON: %s", raw)
	}
	var stats StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats not valid JSON: %v (%s)", err, raw)
	}
	if stats.Threshold != 0 {
		t.Fatalf("non-finite threshold not dropped: %+v", stats)
	}
	if len(stats.Members) != 1 || stats.Members[0].Weight != 0 || stats.Members[0].LastScore != 0 {
		t.Fatalf("non-finite member floats not zeroed: %+v", stats.Members)
	}
}

// nonFinite names the values a stream's constDetector and
// constThresholder report for every score, nonconformity and threshold.
var nonFinite = map[string]float64{"nan": math.NaN(), "pinf": math.Inf(1), "ninf": math.Inf(-1)}

// constDetector is ready from its first step and reports v as both its
// score and its nonconformity.
type constDetector struct{ v float64 }

func (d constDetector) Step([]float64) (core.Result, bool) {
	return core.Result{Score: d.v, Nonconformity: d.v}, true
}

// constThresholder reports v as its boundary and never alerts.
type constThresholder struct{ v float64 }

func (constThresholder) Alert(float64) bool   { return false }
func (t constThresholder) Threshold() float64 { return t.v }

// TestObserveZeroesNonFiniteFloats: NaN and ±Inf scores, nonconformities
// and thresholds must reach the producer as 0 on both observe endpoints,
// one vector per request and as an NDJSON batch. encoding/json refuses
// non-finite floats, so a missed guard shows up as a cut-off response.
func TestObserveZeroesNonFiniteFloats(t *testing.T) {
	srv, err := New(Config{
		NewDetector:    func(id string) (Stepper, error) { return constDetector{nonFinite[id]}, nil },
		NewThresholder: func(id string) score.Thresholder { return constThresholder{nonFinite[id]} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(path, body string) []string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, raw)
		}
		return strings.Split(strings.TrimSpace(string(raw)), "\n")
	}
	var batch strings.Builder
	for id := range nonFinite {
		line := fmt.Sprintf(`{"stream":%q,"vector":[1,2]}`, id)
		batch.WriteString(line + "\n" + line + "\n")
		for _, out := range append(post("/v1/observe", line), post("/v1/streams/"+id+"/observe", `{"vector":[1,2]}`)...) {
			checkZeroed(t, id, out)
		}
	}
	lines := post("/v1/observe", batch.String())
	if len(lines) != 2*len(nonFinite) {
		t.Fatalf("batch returned %d lines, want %d", len(lines), 2*len(nonFinite))
	}
	for _, out := range lines {
		checkZeroed(t, "batch", out)
	}
}

// checkZeroed decodes one observe response line and requires a ready
// result whose float fields are all 0.
func checkZeroed(t *testing.T, what, line string) {
	t.Helper()
	var out struct {
		Ready                           bool
		Score, Nonconformity, Threshold float64
		Error                           string
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("%s: response %q does not decode: %v", what, line, err)
	}
	if !out.Ready || out.Error != "" || out.Score != 0 || out.Nonconformity != 0 || out.Threshold != 0 {
		t.Fatalf("%s: non-finite floats not zeroed: %s", what, line)
	}
}

// TestEnsembleThroughServer runs a real 3-member ensemble behind the
// HTTP API: aggregated scores come back per vector, the stats endpoint
// grows per-member rows, and /metrics exposes the member families.
func TestEnsembleThroughServer(t *testing.T) {
	const spec = "ensemble(knn+sw+regular+avg, arima+sw+regular+avg, knn+ures+regular+avg; agg=perf, prune=-8)"
	srv, err := New(Config{
		NewDetector: func(string) (Stepper, error) {
			return streamad.NewFromSpec(spec, streamad.Config{
				Channels: 3, Window: 8, TrainSize: 20, WarmupVectors: 25, Seed: 3,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ready := 0
	for _, v := range testVectors(80) {
		if observeDirect(t, srv, "s", v).Ready {
			ready++
		}
	}
	if ready == 0 {
		t.Fatal("ensemble never scored through the server")
	}

	stats := nodeStats(t, srv, "s")
	if len(stats.Members) != 3 {
		t.Fatalf("stats carry %d member rows, want 3: %+v", len(stats.Members), stats)
	}
	var weightSum float64
	for i, m := range stats.Members {
		if m.Index != i || m.Label == "" || m.Ready == 0 {
			t.Fatalf("member row %d looks dead: %+v", i, m)
		}
		weightSum += m.Weight
	}
	if math.Abs(weightSum-1) > 1e-9 {
		t.Fatalf("member weights sum to %v, want 1", weightSum)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, family := range []string{
		"streamad_ensemble_member_ready_total",
		"streamad_ensemble_member_fine_tunes_total",
		"streamad_ensemble_member_agreement",
		"streamad_ensemble_member_weight",
		"streamad_ensemble_member_disabled",
	} {
		if !strings.Contains(text, "# HELP "+family+" ") ||
			!strings.Contains(text, "# TYPE "+family+" ") ||
			!strings.Contains(text, family+`{stream="s",member="0",spec="knn+sw+regular+avg"}`) {
			t.Fatalf("metrics missing member family %s:\n%s", family, text)
		}
	}
}

// TestNestedTreeThroughServer runs a real cascade over an ensemble: the
// stats walk reports the root's cascade counters and the nested
// ensemble's member rows together, in the JSON and in /metrics, with the
// members addressed by their child path (the ensemble is the cascade's
// child 1, after the gate).
func TestNestedTreeThroughServer(t *testing.T) {
	const spec = "cascade(zscore, ensemble(arima+sw+musigma, knn+sw+musigma))"
	srv, err := New(Config{
		NewDetector: func(string) (Stepper, error) {
			return streamad.NewFromSpec(spec, streamad.Config{
				Channels: 3, Window: 8, TrainSize: 20, WarmupVectors: 25, Seed: 3,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range testVectors(80) {
		observeDirect(t, srv, "s", v)
	}

	stats := nodeStats(t, srv, "s")
	cs := stats.Cascade
	if cs == nil || cs.Node != "" || cs.GateLabel != "zscore" || cs.Screened+cs.Admitted+cs.Forwarded != stats.Steps {
		t.Fatalf("cascade section wrong: %+v (steps %d)", cs, stats.Steps)
	}
	if len(stats.Members) != 2 {
		t.Fatalf("stats carry %d member rows, want the nested ensemble's 2: %+v", len(stats.Members), stats)
	}
	for i, m := range stats.Members {
		if m.Node != "1" || m.Index != i || m.Ready == 0 {
			t.Fatalf("member row %d: %+v, want node 1, index %d, scored", i, m, i)
		}
	}
	if stats.Members[0].Label != "arima+sw+musigma+al" || stats.Members[1].Label != "knn+sw+musigma+al" {
		t.Fatalf("member labels: %+v", stats.Members)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range []string{
		`streamad_cascade_admit_target{stream="s"} 0.1`,
		`streamad_cascade_forwarded_total{stream="s",gate="zscore"} `,
		`streamad_ensemble_member_weight{stream="s",member="1.0",spec="arima+sw+musigma+al"} `,
		`streamad_ensemble_member_weight{stream="s",member="1.1",spec="knn+sw+musigma+al"} `,
	} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Fatalf("metrics missing %q:\n%s", line, rec.Body)
		}
	}
}

// TestMetricsStreamCap pins the per-stream cardinality bound: with a cap
// of 2, only the first two streams by id get per-stream series, the
// omitted gauge counts the rest, and the aggregate families still render.
func TestMetricsStreamCap(t *testing.T) {
	srv, err := New(Config{
		NewDetector: func(string) (Stepper, error) { return &stubDetector{dim: 2}, nil },
		NewThresholder: func(string) score.Thresholder {
			return &score.StaticThresholder{T: 0.5}
		},
		MetricsStreamCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, id := range []string{"cap-a", "cap-b", "cap-c", "cap-d"} {
		observe(t, ts, id, []float64{1, 2})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`streamad_steps_total{stream="cap-a"} 1`,
		`streamad_steps_total{stream="cap-b"} 1`,
		"streamad_metrics_streams_omitted 2",
		"streamad_ingest_shed_total", // aggregate families are never capped
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	for _, absent := range []string{`stream="cap-c"`, `stream="cap-d"`} {
		if strings.Contains(body, absent) {
			t.Fatalf("metrics contains %q beyond the cap:\n%s", absent, body)
		}
	}
}

// TestMetricsStreamCapDefault checks the zero-config default keeps every
// stream when the fleet is small and the omitted gauge reads zero.
func TestMetricsStreamCapDefault(t *testing.T) {
	ts := newTestServer(t)
	observe(t, ts, "only", []float64{1, 2})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "streamad_metrics_streams_omitted 0") {
		t.Fatalf("omitted gauge missing or nonzero:\n%s", body)
	}
	if !strings.Contains(body, `streamad_steps_total{stream="only"} 1`) {
		t.Fatalf("per-stream series missing under default cap:\n%s", body)
	}
}

// nodeStats GETs /v1/streams/{id} until the answer carries the stream's
// node detail (ensemble members or a cascade section): an observe is
// answered before its dispatcher lets go of the stream, and the stats of
// a busy stream omit that detail.
func nodeStats(t *testing.T, h http.Handler, id string) StatsResponse {
	t.Helper()
	var stats StatsResponse
	waitFor(t, 5*time.Second, "the node detail of stream "+id, func() bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/"+id, nil))
		stats = StatsResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		return len(stats.Members) > 0 || stats.Cascade != nil
	})
	return stats
}
