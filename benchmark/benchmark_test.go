package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamad"
	"streamad/internal/ingest"
	"streamad/internal/score"
)

// inProcTarget serves a workload from this process, so the tests drive
// the whole harness — set-up, restart, timed phase, verdict, traced
// replay — without exec'ing streamadd.
type inProcTarget struct {
	ip   *inProc
	pool *streamad.ScorePool
}

func launchInProc(wl *workload, stateDir string) (target, error) {
	pool := streamad.NewScoringPool(0)
	newDet := func(id string) (ingest.Stepper, error) {
		return newDetector(wl, wl.spec, id, pool)
	}
	newTh := func(string) score.Thresholder { return score.NewQuantileThresholder(alertQuantile) }
	ip, err := openInProc(wl, stateDir, pool, newDet, newTh)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &inProcTarget{ip: ip, pool: pool}, nil
}

func (t *inProcTarget) dial(int) *conn {
	return newConnVia(&handlerTransport{h: t.ip.srv}, "http://inproc")
}

func (t *inProcTarget) stop() (time.Duration, error) {
	start := time.Now()
	err := t.ip.close()
	t.pool.Close()
	return time.Since(start), err
}

func (t *inProcTarget) kill() { t.stop() }

func (t *inProcTarget) sample() procSample {
	w := httptest.NewRecorder()
	t.ip.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return procSample{metrics: w.Body.String()}
}

// testScale shrinks a workload to what a unit test can afford: the
// shortest warm-up that passes w+m and the initial Fit, small fleets
// for the 256- and 512-stream workloads (every stage checkpoints every
// stream with an fsync), and cheap ensemble members (an initial
// Fit of usad+nbeats alone costs a second per stream).
func testScale(wl *workload) *workload {
	small := *wl
	small.warm = wl.window + wl.train + 12
	switch wl.name {
	case "ingest-light":
		small.streams, small.perRequest, small.verify = 64, 16, []int{0, 15, 16, 47, 63}
	case "model-heavy":
		small.spec = "ensemble(arima+sw+musigma, knn+sw+musigma; agg=mean)"
		small.streams, small.verify = 4, []int{3}
	case "tier-churn":
		small.streams, small.verify = 64, []int{0, 5, 20, 32 + 2, 32 + 9, 32 + 31}
		small.perRequest = 3 + 2*churnVisit
	}
	return &small
}

// TestWorkloadsEndToEnd runs every workload at 1/100 of its size
// against an in-process server: exact quota, contiguous seq, a restart
// in the middle of set-up, digest equality between the wire and the
// library path, and — through the traced replay — alert-bit equality
// between the black-box run and the in-process stages.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, full := range workloads {
		wl := testScale(full)
		t.Run(wl.name, func(t *testing.T) {
			seconds := 0.12
			if wl.shape == shapeChurn {
				seconds = 0.3 // the open loop is paced: 0.12 s would be 4 requests
			}
			root := t.TempDir()
			in := newInputs(wl, 7, seconds)
			bb, err := runBlackBox(launchInProc, in, root, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			res := &runResult{Workload: wl.name}
			bb.verdict(res)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
			}
			want := 0
			for _, q := range wl.streamQuota(wl.requestsPerConn(seconds)) {
				want += q
			}
			if res.Attempted != want || bb.fleet.timedRecords() != want {
				t.Fatalf("attempted %d, answered %d, quota %d", res.Attempted, bb.fleet.timedRecords(), want)
			}
			for i, st := range bb.fleet.streams {
				if got, want := st.nextSeq, uint64(wl.prefix()+in.quota[i]); got != want {
					t.Fatalf("%s: next seq %d, want %d", st.id, got, want)
				}
			}
			bb.endToEnd(res)
			for _, name := range []string{"vectors_per_s", "cpu_us_per_vector", "request_p50_ms", "peak_rss_mb", "setup_s", "alert_recall", "false_alarm_rate"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("end-to-end metric %s missing", name)
				}
			}

			// A corrupted digest must be caught.
			bb.fleet.streams[wl.verify[0]].digest ^= 1
			bad := &runResult{}
			bb.verdict(bad)
			if bad.Correct {
				t.Error("a digest mismatch passed the verdict")
			}
			bb.fleet.streams[wl.verify[0]].digest ^= 1

			spans := filepath.Join(root, "spans.json")
			if err := bb.perLayer(res, spans); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Names []string  `json:"names"`
				Spans [][]int64 `json:"spans"`
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(doc.Spans) == 0 || len(doc.Names) != len(spanNames) {
				t.Fatalf("span file holds %d spans, %d names", len(doc.Spans), len(doc.Names))
			}
			for _, s := range doc.Spans {
				if len(s) != 5 || s[2] < s[1] || s[3] >= int64(len(doc.Spans)) {
					t.Fatalf("malformed span %v", s)
				}
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps the contract file and the code in step: the
// workloads, every end-to-end metric and every per-layer metric the
// program prints are the ones BENCHMARK.json lists, units included.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, code has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if doc.RunSeconds < fullSizeSeconds {
		t.Errorf("run_seconds %d is below the size the workloads' sizing rules are checked at", doc.RunSeconds)
	}

	wl := testScale(workloads[3]) // the cheapest to run
	bb, err := runBlackBox(launchInProc, newInputs(wl, 3, 0.05), t.TempDir(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := &runResult{}, &runResult{}
	bb.endToEnd(e2e)
	if err := bb.perLayer(layers, filepath.Join(t.TempDir(), "spans.json")); err != nil {
		t.Fatal(err)
	}
	sawSetup := false
	if len(doc.EndToEnd) != len(e2e.Metrics) {
		t.Errorf("%d end-to-end metrics listed, %d printed", len(doc.EndToEnd), len(e2e.Metrics))
	}
	for _, m := range doc.EndToEnd {
		got, ok := e2e.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program prints %+v (present=%v)", m.Name, m.Unit, got, ok)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s [s, lower] is not listed")
	}
	if len(doc.PerLayer) != len(layers.Metrics) {
		t.Errorf("%d per-layer metrics listed, %d printed", len(doc.PerLayer), len(layers.Metrics))
	}
	for _, m := range doc.PerLayer {
		if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s [%s]: program prints %+v (present=%v)", m.Name, m.Unit, got, ok)
		}
	}
}

func TestSliceRates(t *testing.T) {
	// Ten requests of 10 records, one per 10 ms, except a 500 ms stall
	// before the 6th: four slices run at 1000 records/s, the stalled one
	// far slower, and the median ignores it.
	var done []completion
	at := int64(0)
	for i := 0; i < 10; i++ {
		at += 10e6
		if i == 5 {
			at += 500e6
		}
		done = append(done, completion{doneNs: at, records: 10})
	}
	rates := sliceRates(done, 5)
	if len(rates) != 5 {
		t.Fatalf("got %d slices", len(rates))
	}
	if m := median(rates); math.Abs(m-1000) > 1e-6 {
		t.Errorf("median slice rate %v, want 1000", m)
	}
	if rates[2] > 50 {
		t.Errorf("the stalled slice ran at %v records/s", rates[2])
	}
	if total := 100 / (float64(at) / 1e9); median(rates) < 4*total {
		t.Errorf("total/elapsed %v should be far below the slice median", total)
	}
	if sliceRates(done[:3], 5) != nil {
		t.Error("fewer requests than slices must give no rates")
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("interpolated quantile %v", got)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
	if s := relSpread([]float64{9, 10, 11}); math.Abs(s-0.2) > 1e-12 {
		t.Errorf("relSpread %v", s)
	}
}

// TestTailPercentile: the reported tail is the highest percentile with
// at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{40, 0.75}, {100, 0.90}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5, 0.5}} {
		if p, _ := tailPercentile(mk(c.n)); p != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, p, c.want)
		}
	}
}

func TestPointAdjust(t *testing.T) {
	T, F := true, false
	truth := []bool{F, T, F, F, F, F, T, F, F, F}
	alert := []bool{F, F, F, T, F, F, F, F, F, T}
	// tol 2: the anomaly at 1 is caught by the alert at 3 (and that alert
	// is forgiven); the anomaly at 6 is missed; the alert at 9 is a false alarm.
	d := pointAdjust(truth, alert, 2)
	if d.tp != 1 || d.fn != 1 || d.fp != 1 || d.tn != 7 {
		t.Errorf("tol 2: %+v", d)
	}
	// tol 0: exact matching.
	d = pointAdjust(truth, alert, 0)
	if d.tp != 0 || d.fn != 2 || d.fp != 2 || d.tn != 6 {
		t.Errorf("tol 0: %+v", d)
	}
	if r := (detection{tp: 1, fn: 3}).recall(); r != 0.25 {
		t.Errorf("recall %v", r)
	}
	if (detection{}).recall() != 0 || (detection{}).falseAlarmRate() != 0 {
		t.Error("empty matrices must give 0")
	}
}

// slowFirst answers like nullHandler but holds the first request.
type slowFirst struct {
	hold time.Duration
	seen bool
}

func (h *slowFirst) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.seen {
		h.seen = true
		time.Sleep(h.hold)
	}
	nullHandler{}.ServeHTTP(w, r)
}

// TestOpenLoopDueTime: the open loop sends on schedule, times each
// request from when it was due, and reports how late the generator ran.
func TestOpenLoopDueTime(t *testing.T) {
	wl := &workload{
		name: "open", openLoop: true, conns: 1, streams: 2, channels: 2,
		shape: shapeTick, perRequest: 2, reqRate: 100, // one request per 10 ms
	}
	h := &slowFirst{hold: 35 * time.Millisecond}
	f, err := newFleet(newInputs(wl, 1, 0.1), func(int) *conn {
		return newConnVia(&handlerTransport{h: h}, "http://open")
	})
	if err != nil {
		t.Fatal(err)
	}
	f.nocheck = true
	res := f.runTimed(6)
	if len(res.done) != 6 {
		t.Fatalf("%d completions", len(res.done))
	}
	first, second, last := res.done[0], res.done[1], res.done[5]
	if first.latencyNs < 35e6 {
		t.Errorf("first request took %v ns, the handler held it 35 ms", first.latencyNs)
	}
	// Request 1 was due at 10 ms but could only leave after request 0
	// finished at ≥ 35 ms: ≥ 25 ms late, and its latency counts that wait.
	if second.lagNs < 24e6 || second.latencyNs < second.lagNs {
		t.Errorf("second request: lag %d ns, latency %d ns", second.lagNs, second.latencyNs)
	}
	// The schedule is absolute: the generator catches up and later
	// requests leave on time, 10 ms apart.
	if last.lagNs > 5e6 || last.doneNs < 50e6 {
		t.Errorf("last request: lag %d ns, done at %d ns", last.lagNs, last.doneNs)
	}
}

func TestCheckVerdicts(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", []float64{100, 101, 99}, []float64{100, 102, 100}, "higher", "ok"},
		{"slower throughput", []float64{100, 101, 99}, []float64{80, 81, 79}, "higher", "regressed"},
		{"faster throughput", []float64{100, 101, 99}, []float64{130, 131, 129}, "higher", "ok"},
		{"higher latency", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "lower", "regressed"},
		{"lower latency", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "lower", "ok"},
		{"noisy baseline", []float64{100, 120, 90}, []float64{80, 81, 79}, "higher", "unresolved"},
		{"noisy candidate", []float64{100, 101, 99}, []float64{60, 80, 100}, "higher", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, vps []float64, failed int) string {
		rf := resultFile{}
		for _, v := range vps {
			rf.Runs = append(rf.Runs, runResult{
				Workload: "w", Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"vectors_per_s": {v, "1/s"}},
			})
		}
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contract := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(contract, []byte(`{"end_to_end":[{"name":"vectors_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	base := write("a.json", []float64{100, 101, 99}, 0)
	var out bytes.Buffer
	if code := runCheck(contract, base, write("same.json", []float64{100, 100, 101}, 0), &out); code != 0 || !strings.Contains(out.String(), " ok") {
		t.Errorf("equal sides: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCheck(contract, base, write("slow.json", []float64{70, 71, 69}, 0), &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regression: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCheck(contract, base, write("fail.json", []float64{100, 100, 101}, 3), &out); code != 1 || !strings.Contains(out.String(), "failed share rose") {
		t.Errorf("failures: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCheck(contract, base, write("noisy.json", []float64{70, 100, 130}, 0), &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy candidate: exit %d\n%s", code, out.String())
	}

	// Exact metrics on equal inputs: 0.01 absolute, whatever the relative bound.
	recall := func(seed int64, v float64) map[inputsKey]float64 { return map[inputsKey]float64{{seed, 12}: v} }
	for _, c := range []struct {
		name string
		a, b map[inputsKey]float64
		want string
	}{
		{"equal", recall(7, 0.65), recall(7, 0.65), "ok"},
		{"within 0.01", recall(7, 0.65), recall(7, 0.641), "ok"},
		{"lost 0.02", recall(7, 0.65), recall(7, 0.63), "regressed"},
		{"better", recall(7, 0.65), recall(7, 0.80), "ok"},
		{"other seed", recall(7, 0.65), recall(8, 0.63), ""},
	} {
		if got := exactVerdict(c.a, c.b, "higher"); got != c.want {
			t.Errorf("exact %s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestResponseScan(t *testing.T) {
	line := []byte(`{"stream":"in-0007","seq":41,"ready":true,"score":0.25,"nonconformity":1.5,"alert":true,"threshold":0.2}`)
	if !hasStreamID(line, "in-0007") || hasStreamID(line, "in-000") || hasStreamID(line, "in-00071") {
		t.Error("stream id match")
	}
	if seq, ok := uintAfter(line, keySeq); !ok || seq != 41 {
		t.Errorf("seq %d %v", seq, ok)
	}
	if _, ok := uintAfter(line, keyStep); ok {
		t.Error("found a step in a batch line")
	}
	d1 := foldDigest(fnvOffset, 41, true, 0.25, true)
	if d1 == foldDigest(fnvOffset, 41, true, 0.25, false) || d1 == foldDigest(fnvOffset, 41, true, math.Nextafter(0.25, 1), true) {
		t.Error("digest ignores the alert bit or the score's last bit")
	}
	// Shortest-form floats parse back to the same bits.
	v := []float64{0.1, -3.0000000000000004, 1e-7, 123456789.125}
	var back []float64
	if err := json.Unmarshal(appendVector(nil, v), &back); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(back[i]) {
			t.Errorf("%v came back as %v", v[i], back[i])
		}
	}
}

func TestSchedules(t *testing.T) {
	for _, wl := range workloads {
		reqs := wl.requestsPerConn(12)
		quota := wl.streamQuota(reqs)
		owner := make([]int, wl.streams)
		for i := range owner {
			owner[i] = -1
		}
		var buf []entry
		for c := 0; c < wl.conns; c++ {
			for i := 0; i < 64 && i < reqs; i++ {
				buf = wl.request(c, i, buf[:0])
				n := 0
				for _, e := range buf {
					n += e.n
					if owner[e.stream] >= 0 && owner[e.stream] != c {
						t.Fatalf("%s: stream %d is sent by two connections", wl.name, e.stream)
					}
					owner[e.stream] = c
				}
				if n != wl.perRequest {
					t.Fatalf("%s: request of %d records, want %d", wl.name, n, wl.perRequest)
				}
			}
		}
		for i, q := range quota {
			if q == 0 {
				t.Errorf("%s: stream %d gets no timed vectors", wl.name, i)
			}
		}
		// Concept switches: the same number in every fifth of the run,
		// and the same number on every connection.
		perSlice := make([]int, 5)
		perConn := make([]int, wl.conns)
		for i := 0; i < wl.streams; i++ {
			for _, f := range wl.flipFractions(i) {
				perSlice[int(f*5)]++
				perConn[i/(wl.streams/wl.conns)]++
			}
		}
		for s := 1; s < 5; s++ {
			if d := perSlice[s] - perSlice[0]; d < -1 || d > 1 {
				t.Errorf("%s: concept switches per slice %v", wl.name, perSlice)
			}
		}
		for c := 1; c < wl.conns; c++ {
			if perConn[c] != perConn[0] {
				t.Errorf("%s: concept switches per connection %v", wl.name, perConn)
			}
		}
	}
	// tier-churn: the warm set comes back before the TTL, the cold set after it.
	wl, _ := findWorkload("tier-churn")
	own := wl.streams / wl.conns
	_, warm, cold := churnSets(own)
	warmIdle := time.Duration(float64(warm) / wl.reqRate * float64(time.Second))
	coldIdle := time.Duration(float64(cold) / wl.reqRate * float64(time.Second))
	scan := wl.warmAfter / 4
	if warmIdle < wl.warmAfter+scan || warmIdle >= wl.streamTTL {
		t.Errorf("warm set idles %v: must pass warm-after %v (+%v scan) and stay under the TTL %v", warmIdle, wl.warmAfter, scan, wl.streamTTL)
	}
	if coldIdle < wl.streamTTL+scan {
		t.Errorf("cold set idles %v: must pass the TTL %v (+%v scan)", coldIdle, wl.streamTTL, scan)
	}
}
