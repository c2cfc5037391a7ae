package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"streamad/internal/ingest"
)

// The registry unit tests stand where the metriclint fixtures stood: each
// rule the analyzer used to police is now a panic at construction or
// emission, or simply how render works.

func mustPanic(t *testing.T, what, wantSubstr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, wantSubstr) {
			t.Errorf("%s: panic %q does not mention %q", what, msg, wantSubstr)
		}
	}()
	fn()
}

func noSamples(*scrapeInput, *emitter)    {}
func noRows(*ingest.StreamInfo, *emitter) {}
func renderOne(f family, sc *scrapeInput) string {
	return string(newMetricSet([]family{f}, 0).render(sc))
}

func TestMetricSetRejectsBadDeclarations(t *testing.T) {
	ok := family{name: "x_total", kind: counter, help: "h", collect: noSamples}
	hist := family{name: "x", kind: histogram, help: "h", collect: noSamples}
	cases := []struct {
		what, want string
		fams       []family
	}{
		{"duplicate family", "x_total declared twice", []family{ok, ok}},
		{"family colliding with a histogram series", "x_count declared twice",
			[]family{hist, {name: "x_count", kind: counter, help: "h", collect: noSamples}}},
		{"missing help", "help text", []family{{name: "x_total", kind: counter, collect: noSamples}}},
		{"missing name", "needs a name", []family{{kind: counter, help: "h", collect: noSamples}}},
		{"invalid TYPE", "valid kind", []family{{name: "x", kind: histogram + 1, help: "h", collect: noSamples}}},
		{"reserved le label", "bad label list", []family{{name: "x", kind: histogram, help: "h", labels: []string{"le"}, collect: noSamples}}},
		{"repeated label", "bad label list", []family{{name: "x", kind: gauge, help: "h", labels: []string{"a", "a"}, collect: noSamples}}},
		{"stream label not first", "bad label list", []family{{name: "x", kind: gauge, help: "h", labels: []string{"a", "stream"}, perStream: noRows}}},
		{"stream label on a process-level collector", "per-stream exactly when", []family{{name: "x", kind: gauge, help: "h", labels: []string{"stream"}, collect: noSamples}}},
		{"per-stream collector without the stream label", "per-stream exactly when", []family{{name: "x", kind: gauge, help: "h", perStream: noRows}}},
		{"no collector", "per-stream exactly when", []family{{name: "x", kind: gauge, help: "h"}}},
		{"two collectors", "per-stream exactly when", []family{{name: "x", kind: gauge, help: "h", labels: []string{"stream"}, collect: noSamples, perStream: noRows}}},
	}
	for _, c := range cases {
		mustPanic(t, c.what, c.want, func() { newMetricSet(c.fams, 0) })
	}
}

func TestEmitterRejectsLabelDrift(t *testing.T) {
	sc := &scrapeInput{rows: []ingest.StreamInfo{{ID: "s"}}}
	mustPanic(t, "too few label values", `takes labels ["a" "b"]`, func() {
		renderOne(family{name: "x", kind: gauge, help: "h", labels: []string{"a", "b"},
			collect: func(_ *scrapeInput, e *emitter) { e.put(count(1), "only-a") }}, sc)
	})
	mustPanic(t, "stream value passed by a per-stream collector", `takes labels ["gate"]`, func() {
		renderOne(family{name: "x", kind: gauge, help: "h", labels: []string{"stream", "gate"},
			perStream: func(r *ingest.StreamInfo, e *emitter) { e.put(count(1), r.ID, "z") }}, sc)
	})
	mustPanic(t, "histogram emitted with a wrong label count", "takes labels", func() {
		renderOne(family{name: "x", kind: histogram, help: "h",
			collect: func(_ *scrapeInput, e *emitter) { e.hist([]float64{1}, []uint64{0, 0}, count(0), "extra") }}, sc)
	})
	mustPanic(t, "plain sample on a histogram", "put on histogram", func() {
		renderOne(family{name: "x", kind: histogram, help: "h",
			collect: func(_ *scrapeInput, e *emitter) { e.put(count(1)) }}, sc)
	})
	mustPanic(t, "histogram on a counter", "hist on non-histogram", func() {
		renderOne(family{name: "x", kind: counter, help: "h",
			collect: func(_ *scrapeInput, e *emitter) { e.hist(nil, []uint64{0}, count(0)) }}, sc)
	})
}

// TestRenderRules pins what render owns: the header goes out once, with
// the first sample; a family without samples renders nothing; labels
// come out in declared order, quoted; histograms fold into cumulative
// _bucket series (le last) plus _sum and _count from the same pass.
func TestRenderRules(t *testing.T) {
	fams := []family{
		{name: "quiet_total", kind: counter, help: "Never has samples.", collect: noSamples},
		{name: "pair", kind: gauge, help: "Two labels.", labels: []string{"from", "to"},
			collect: func(_ *scrapeInput, e *emitter) {
				e.put(count(3), "hot", `wa"rm`)
				e.put(float(0.5), "warm", "hot")
			}},
		{name: "lat_seconds", kind: histogram, help: "A histogram.", labels: []string{"stream", "op"},
			perStream: func(r *ingest.StreamInfo, e *emitter) {
				if r.ID == "b" {
					e.hist([]float64{0.5, 1}, []uint64{2, 0, 3}, float(7.25), "read")
				}
			}},
	}
	sc := &scrapeInput{rows: []ingest.StreamInfo{{ID: "b"}, {ID: "a"}}}
	got := string(newMetricSet(fams, 0).render(sc))
	want := `# HELP pair Two labels.
# TYPE pair gauge
pair{from="hot",to="wa\"rm"} 3
pair{from="warm",to="hot"} 0.5
# HELP lat_seconds A histogram.
# TYPE lat_seconds histogram
lat_seconds_bucket{stream="b",op="read",le="0.5"} 2
lat_seconds_bucket{stream="b",op="read",le="1"} 2
lat_seconds_bucket{stream="b",op="read",le="+Inf"} 5
lat_seconds_sum{stream="b",op="read"} 7.25
lat_seconds_count{stream="b",op="read"} 5
`
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

// TestStreamCapCoversEveryStreamFamily: the cap is render's, not the
// collector's — any family declared with a stream label loses the streams
// past the cut, whatever its collector does, and the cut is counted.
func TestStreamCapCoversEveryStreamFamily(t *testing.T) {
	fams := []family{
		{name: "omitted", kind: gauge, help: "h", collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.omitted)) }},
		{name: "a_total", kind: counter, help: "h", labels: []string{"stream"},
			perStream: func(r *ingest.StreamInfo, e *emitter) { e.put(count(r.Steps)) }},
		{name: "b", kind: gauge, help: "h", labels: []string{"stream", "member"},
			perStream: func(r *ingest.StreamInfo, e *emitter) { e.put(count(1), "0"); e.put(count(2), "1") }},
	}
	var rows []ingest.StreamInfo
	for _, id := range []string{"s3", "s1", "s4", "s2", "s0"} {
		rows = append(rows, ingest.StreamInfo{ID: id, Steps: 9})
	}
	got := string(newMetricSet(fams, 2).render(&scrapeInput{rows: rows}))
	want := `# HELP omitted h
# TYPE omitted gauge
omitted 3
# HELP a_total h
# TYPE a_total counter
a_total{stream="s0"} 9
a_total{stream="s1"} 9
# HELP b h
# TYPE b gauge
b{stream="s0",member="0"} 1
b{stream="s0",member="1"} 2
b{stream="s1",member="0"} 1
b{stream="s1",member="1"} 2
`
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricFamiliesTable checks the production table itself: it passes
// construction, holds the 47 families of the contract, and each of them
// is rendered by at least one golden state.
func TestMetricFamiliesTable(t *testing.T) {
	fams := newMetricSet(metricFamilies(), 0).families
	if len(fams) != 47 {
		t.Errorf("%d families declared, want 47", len(fams))
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "metrics_*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	var golden strings.Builder
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		golden.Write(raw)
	}
	for _, f := range fams {
		if !strings.HasPrefix(f.name, "streamad_") {
			t.Errorf("family %s lacks the streamad_ prefix", f.name)
		}
		if !strings.Contains(golden.String(), fmt.Sprintf("# TYPE %s %s\n", f.name, f.kind)) {
			t.Errorf("family %s is rendered by no golden state", f.name)
		}
	}
}

// TestBatchSizeHistogramConsistentUnderLoad scrapes while dispatcher
// passes land: within every scrape the cumulative buckets must be
// monotone and le="+Inf" must equal _count. (The pre-cumulated buckets
// this replaced were read after the pass counter, so a concurrent pass
// could push le="128" past +Inf.)
func TestBatchSizeHistogramConsistentUnderLoad(t *testing.T) {
	ts := newIngestServer(t, Config{Shards: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := strings.Repeat(batchLine(fmt.Sprintf("load-%d", w), []float64{1, 2}), 1+w*3)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/observe", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	const family = "streamad_ingest_batch_size"
	for i := 0; i < 200; i++ {
		raw := scrape(t, ts.URL)
		prev, inf := 0, -1
		for _, line := range strings.Split(raw, "\n") {
			if !strings.HasPrefix(line, family+"_bucket{") {
				continue
			}
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("bad sample %q", line)
			}
			if v < prev {
				t.Fatalf("scrape %d: buckets not monotone at %q (previous %d):\n%s", i, line, prev, grepLines(raw, family))
			}
			prev, inf = v, v
		}
		if count := sampleValue(t, raw, family+"_count"); inf != count {
			t.Fatalf("scrape %d: le=\"+Inf\" %d != _count %d:\n%s", i, inf, count, grepLines(raw, family))
		}
	}
	close(stop)
	wg.Wait()
}
