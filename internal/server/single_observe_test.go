package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"streamad/internal/cluster"
	"streamad/internal/ingest"
	"streamad/internal/score"
)

// singleReply is what a producer of POST /v1/streams/{id}/observe sees.
type singleReply struct {
	status      int
	contentType string
	retryAfter  string
	body        string
}

// postSingle sends one raw observe body through s.ServeHTTP.
func postSingle(s http.Handler, id, body string) singleReply {
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/observe", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return singleReply{
		status:      rec.Code,
		contentType: rec.Header().Get("Content-Type"),
		retryAfter:  rec.Header().Get("Retry-After"),
		body:        rec.Body.String(),
	}
}

// newSingleServer builds a Server with the static 0.5 alert boundary the
// single-endpoint pins are written against.
func newSingleServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.NewThresholder = func(string) score.Thresholder { return &score.StaticThresholder{T: 0.5} }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// waitQueued polls the registry until id has n vectors queued behind the
// one in flight.
func waitQueued(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("%d queued vector(s) on %s", n, id), func() bool {
		info, ok := s.reg.StreamStats(id)
		return ok && info.QueueLen >= n
	})
}

// saturate holds a gated stream full: one vector blocked inside Step and
// one queued behind it, both posted through h. It returns the channel
// their two replies arrive on and the function that releases the gate.
func saturate(t *testing.T, h http.Handler, owner *Server, gate *gateDet, id string) (<-chan singleReply, func()) {
	t.Helper()
	replies := make(chan singleReply, 2)
	post := func() { replies <- postSingle(h, id, `{"vector":[1,2]}`) }
	go post()
	<-gate.entered
	go post()
	waitQueued(t, owner, id, 1)
	return replies, func() { close(gate.release) }
}

const (
	textPlain = "text/plain; charset=utf-8"
	jsonType  = "application/json"
)

// TestSingleObserveResponses pins every outcome of the single-vector
// endpoint on one node: status, Content-Type, Retry-After and the body
// bytes.
func TestSingleObserveResponses(t *testing.T) {
	stub := func(string) (Stepper, error) { return &stubDetector{dim: 2}, nil }
	got := map[string]singleReply{}

	s := newSingleServer(t, Config{NewDetector: stub})
	got["not ready"] = postSingle(s, "a", `{"vector":[0,0]}`)
	postSingle(s, "a", `{"vector":[0,0]}`)
	got["ready"] = postSingle(s, "a", `{"vector":[9,0]}`)
	got["bad json"] = postSingle(s, "a", `{`)
	got["empty vector"] = postSingle(s, "a", `{"vector":[]}`)
	got["wrong shape"] = postSingle(s, "a", `{"vector":[1,2,3]}`)

	gate := &gateDet{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s = newSingleServer(t, Config{
		NewDetector: func(string) (Stepper, error) { return gate, nil },
		QueueDepth:  1, Overload: ingest.DropOldest,
	})
	replies, release := saturate(t, s, s, gate, "g")
	third := make(chan singleReply, 1)
	go func() { third <- postSingle(s, "g", `{"vector":[1,2]}`) }()
	got["dropped"] = <-replies // the queued vector, displaced by the third
	release()
	if r := <-replies; r.status != http.StatusOK {
		t.Fatalf("in-flight vector = %+v", r)
	}
	if r := <-third; r.status != http.StatusOK {
		t.Fatalf("displacing vector = %+v", r)
	}

	gate = &gateDet{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s = newSingleServer(t, Config{
		NewDetector: func(string) (Stepper, error) { return gate, nil },
		QueueDepth:  1, Overload: ingest.Shed,
	})
	replies, release = saturate(t, s, s, gate, "g")
	got["shed"] = postSingle(s, "g", `{"vector":[1,2]}`)
	release()
	for i := 0; i < 2; i++ {
		if r := <-replies; r.status != http.StatusOK {
			t.Fatalf("admitted vector = %+v", r)
		}
	}

	s = newSingleServer(t, Config{NewDetector: stub, MaxStreams: 1})
	postSingle(s, "a", `{"vector":[0,0]}`)
	got["stream limit"] = postSingle(s, "b", `{"vector":[0,0]}`)

	s = newSingleServer(t, Config{NewDetector: func(string) (Stepper, error) { return nil, errors.New("boom") }})
	got["factory error"] = postSingle(s, "a", `{"vector":[0,0]}`)

	want := map[string]singleReply{
		"not ready":     {200, jsonType, "", `{"ready":false,"score":0,"nonconformity":0,"alert":false,"step":0}` + "\n"},
		"ready":         {200, jsonType, "", `{"ready":true,"score":0.95,"nonconformity":0.95,"alert":true,"threshold":0.5,"step":2}` + "\n"},
		"bad json":      {400, textPlain, "", "bad json: unexpected EOF\n"},
		"empty vector":  {400, textPlain, "", "empty vector\n"},
		"wrong shape":   {400, textPlain, "", "vector shape does not match this stream's detector\n"},
		"dropped":       {200, jsonType, "", `{"ready":false,"score":0,"nonconformity":0,"alert":false,"step":1,"dropped":true}` + "\n"},
		"shed":          {429, textPlain, "1", "stream queue full; retry later\n"},
		"stream limit":  {503, textPlain, "", "ingest: stream limit 1 reached\n"},
		"factory error": {503, textPlain, "", "boom\n"},
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}

// startLoopbackCluster serves one Server per config on its own loopback
// listener, joined into one cluster membership with the background loops
// off: no probe marks a stopped node down, so the ring stays as built.
// stop(i) shuts node i's listener and server down.
func startLoopbackCluster(t *testing.T, cfgs []Config) (urls []string, srvs []*Server, stop func(int)) {
	t.Helper()
	lns := make([]net.Listener, len(cfgs))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls = append(urls, "http://"+ln.Addr().String())
	}
	https := make([]*http.Server, len(cfgs))
	once := make([]sync.Once, len(cfgs))
	stop = func(i int) {
		once[i].Do(func() {
			https[i].Close()
			srvs[i].Close()
		})
	}
	for i, cfg := range cfgs {
		cfg.Cluster = &cluster.Config{
			Self: urls[i], Peers: urls,
			ProbeInterval: time.Hour, RebalanceInterval: -1, StandbyInterval: -1,
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		https[i] = &http.Server{Handler: srv}
		go https[i].Serve(lns[i])
		i := i
		t.Cleanup(func() { stop(i) })
	}
	return urls, srvs, stop
}

var nodeField = regexp.MustCompile(`,"node":"[^"]*"`)

// TestSingleObserveThroughNonOwner: single observes posted to a node that
// does not own the stream answer what the owner answers — scores equal
// to a standalone server's, the owner's 400, 429 with Retry-After and
// 503 — and 502 once the owner is gone.
func TestSingleObserveThroughNonOwner(t *testing.T) {
	gate := &gateDet{entered: make(chan struct{}, 1), release: make(chan struct{})}
	config := func() Config {
		cfg := persistentConfig(nil)
		knn := cfg.NewDetector
		cfg.NewDetector = func(id string) (Stepper, error) {
			if strings.HasPrefix(id, "gate") {
				return gate, nil
			}
			return knn(id)
		}
		cfg.MaxStreams, cfg.QueueDepth, cfg.Overload = 2, 1, ingest.Shed
		return cfg
	}
	urls, srvs, stop := startLoopbackCluster(t, []Config{config(), config()})
	owner, via := srvs[0], srvs[1]
	ownedID := func(prefix string) string {
		for i := 0; ; i++ {
			if id := fmt.Sprintf("%s-%d", prefix, i); owner.ClusterNode().Owner(id) == urls[0] {
				return id
			}
		}
	}
	standalone, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	defer standalone.Close()

	id := ownedID("so")
	for i, v := range testVectors(60) {
		body, _ := json.Marshal(map[string][]float64{"vector": v})
		got := postSingle(via, id, string(body))
		want := postSingle(standalone, id, string(body))
		if got.status != http.StatusOK || want.status != http.StatusOK {
			t.Fatalf("vector %d: status %d via the non-owner, %d standalone", i, got.status, want.status)
		}
		if !strings.Contains(got.body, `"node":"`+urls[0]+`"`) {
			t.Fatalf("vector %d: %s does not name the owner %s", i, got.body, urls[0])
		}
		if stripped := nodeField.ReplaceAllString(got.body, ""); stripped != want.body {
			t.Fatalf("vector %d:\n via non-owner %s standalone    %s", i, stripped, want.body)
		}
		var out ObserveResponse
		if err := json.Unmarshal([]byte(got.body), &out); err != nil || out.Step != i {
			t.Fatalf("vector %d: step %d (%v), want contiguous steps", i, out.Step, err)
		}
	}

	wrong := `{"vector":[1,2]}`
	got, direct := postSingle(via, id, wrong), postSingle(owner, id, wrong)
	if got.status != http.StatusBadRequest || got.body != direct.body {
		t.Fatalf("wrong shape via the non-owner = %+v, owner answers %+v", got, direct)
	}

	gid := ownedID("gate")
	replies, release := saturate(t, via, owner, gate, gid)
	got = postSingle(via, gid, `{"vector":[1,2]}`)
	if got.status != http.StatusTooManyRequests || got.retryAfter != "1" || got.body != "stream queue full; retry later\n" {
		t.Fatalf("shed via the non-owner = %+v", got)
	}
	release()
	for i := 0; i < 2; i++ {
		if r := <-replies; r.status != http.StatusOK {
			t.Fatalf("admitted gated vector = %+v", r)
		}
	}

	got = postSingle(via, ownedID("lim"), `{"vector":[0,0,0]}`)
	if got.status != http.StatusServiceUnavailable || got.body != "ingest: stream limit 2 reached\n" {
		t.Fatalf("stream limit via the non-owner = %+v", got)
	}

	stop(0)
	if got = postSingle(via, id, `{"vector":[0,0,0]}`); got.status != http.StatusBadGateway {
		t.Fatalf("observe for a stopped owner = %+v, want 502", got)
	}
}

// raceBuild reports whether the test binary was built with -race, under
// which sync.Pool drops items at random and allocation counts drift.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSingleObserveAllocBudget pins the heap allocations of one warm
// single observe through ServeHTTP, request and recorder included.
func TestSingleObserveAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const budget = 39
	s := newSingleServer(t, Config{NewDetector: func(string) (Stepper, error) { return &stubDetector{dim: 2}, nil }})
	body := []byte(`{"vector":[0.5,0.25]}`)
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/a/observe", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("observe = %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 10; i++ {
		run()
	}
	if got := testing.AllocsPerRun(200, run); got > budget {
		t.Fatalf("warm single observe = %.0f allocs, budget %d", got, budget)
	}
}

// TestBatchObserveAllocBudget pins the heap a warm 64-record batch
// allocates through ServeHTTP, request and recorder included: the
// per-record parse and dispatch, with the request's line buffer and
// record slice reused from the previous batch (borrowBatch). It read
// 802 allocations and 154 KB with both allocated per request; a fresh
// 64 KB line buffer alone would break the byte budget.
func TestBatchObserveAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const (
		records     = 64
		allocBudget = 700
		byteBudget  = 64 << 10
	)
	s := newSingleServer(t, Config{NewDetector: func(string) (Stepper, error) { return &stubDetector{dim: 2}, nil }})
	var body []byte
	for i := 0; i < records; i++ {
		body = fmt.Appendf(body, `{"stream":"s%d","vector":[0.5,0.25]}`+"\n", i)
	}
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch observe = %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 10; i++ {
		run()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("warm %d-record batch: %.0f allocs, %d B", records, allocs, bytesPer)
	if allocs > allocBudget || bytesPer > byteBudget {
		t.Fatalf("warm %d-record batch = %.0f allocs and %d B, budget %d and %d B",
			records, allocs, bytesPer, allocBudget, byteBudget)
	}
}
