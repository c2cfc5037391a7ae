package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamad/internal/cluster"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
)

// newClusterServer builds a Server wired into a cluster membership
// without starting the background loops (no StartCluster): the ring,
// the forwarding/loop-guard logic and the migrate/wal endpoints are all
// live, but nothing probes or migrates on its own — each test drives
// exactly the path it checks.
func newClusterServer(t *testing.T, self string, peers []string, store *persist.Store) *Server {
	t.Helper()
	cfg := persistentConfig(store)
	cfg.Cluster = &cluster.Config{
		Self: self, Peers: peers,
		ProbeInterval: time.Hour, RebalanceInterval: -1, StandbyInterval: -1,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// observeLocal scores one vector on this node regardless of ring
// ownership, by presenting the request as already-forwarded.
func observeLocal(t *testing.T, s *Server, id string, vec []float64) ObserveResponse {
	t.Helper()
	body, _ := json.Marshal(map[string][]float64{"vector": vec})
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/observe", bytes.NewReader(body))
	req.Header.Set(cluster.ForwardedHeader, "test")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("observe %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	var resp ObserveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// statsLocal fetches a stream's stats from this node without letting it
// proxy to the ring owner; the bool reports whether the stream is live
// here.
func statsLocal(t *testing.T, s *Server, id string) (StatsResponse, bool) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/streams/"+id, nil)
	req.Header.Set(cluster.ForwardedHeader, "test")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code == http.StatusNotFound {
		return StatsResponse{}, false
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("stats %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp, true
}

// migrateRequestFor packages a Handoff the way the rebalancer wires it
// onto POST /migrate.
func migrateRequestFor(t *testing.T, from string, hs *ingest.HandoffState) []byte {
	t.Helper()
	blob, err := persist.EncodeSnapshotFile(hs.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	req := cluster.MigrateRequest{Node: from, Snapshot: blob, Fingerprint: hs.Fingerprint}
	for _, rec := range hs.Tail {
		req.WAL = append(req.WAL, cluster.WALEntry{Seq: rec.Seq, Vector: rec.Vector})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postMigrate(s *Server, id string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/migrate", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestMigrateEndpoint: the full wire protocol — a stream handed off from
// node A lands on node B via POST /migrate with a matching fingerprint
// acknowledgment, and keeps scoring from the next sequence number.
func TestMigrateEndpoint(t *testing.T) {
	const selfA, selfB = "http://a.test", "http://b.test"
	peers := []string{selfA, selfB}
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
	srvA := newClusterServer(t, selfA, peers, storeA)
	srvB := newClusterServer(t, selfB, peers, storeB)

	vecs := testVectors(20)
	for _, v := range vecs {
		observeLocal(t, srvA, "mig-1", v)
	}
	hs, err := srvA.reg.Handoff("mig-1")
	if err != nil {
		t.Fatal(err)
	}
	body := migrateRequestFor(t, selfA, hs)
	rec := postMigrate(srvB, "mig-1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("migrate = %d: %s", rec.Code, rec.Body.String())
	}
	var ack cluster.MigrateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Node != selfB || ack.Fingerprint != hs.Fingerprint {
		t.Fatalf("ack = %+v, want node %s fp %08x", ack, selfB, hs.Fingerprint)
	}
	resp := observeLocal(t, srvB, "mig-1", testVectors(21)[20])
	if resp.Step != 20 {
		t.Fatalf("post-migration step = %d, want 20 (sequence continued, not a fresh stream)", resp.Step)
	}

	// Replaying the same migration now loses the seq-ordered conflict:
	// the live stream has assigned more sequence numbers.
	if rec := postMigrate(srvB, "mig-1", body); rec.Code != http.StatusConflict {
		t.Fatalf("replayed migrate = %d, want 409", rec.Code)
	}
	// Mismatched stream id in the path vs the snapshot.
	if rec := postMigrate(srvB, "mig-other", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched-id migrate = %d, want 400", rec.Code)
	}
	// Garbage snapshot bytes.
	bad, _ := json.Marshal(cluster.MigrateRequest{Node: selfA, Snapshot: []byte("not a snapshot")})
	if rec := postMigrate(srvB, "mig-1", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage-snapshot migrate = %d, want 400", rec.Code)
	}
	// A node outside any cluster refuses the endpoint outright.
	solo, err := New(persistentConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { solo.Close() })
	if rec := postMigrate(solo, "mig-1", body); rec.Code != http.StatusNotImplemented {
		t.Fatalf("migrate on non-cluster node = %d, want 501", rec.Code)
	}
}

// TestMigrateFingerprintMismatch: a tampered fingerprint must be
// refused, and the half-adopted stream torn down — the source keeps
// ownership, so the target holding a divergent copy would split brain.
func TestMigrateFingerprintMismatch(t *testing.T) {
	const selfA, selfB = "http://a.test", "http://b.test"
	peers := []string{selfA, selfB}
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
	srvA := newClusterServer(t, selfA, peers, storeA)
	srvB := newClusterServer(t, selfB, peers, storeB)

	for _, v := range testVectors(10) {
		observeLocal(t, srvA, "mig-2", v)
	}
	hs, err := srvA.reg.Handoff("mig-2")
	if err != nil {
		t.Fatal(err)
	}
	hs.Fingerprint ^= 1
	rec := postMigrate(srvB, "mig-2", migrateRequestFor(t, selfA, hs))
	if rec.Code != http.StatusConflict {
		t.Fatalf("tampered migrate = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "fingerprint") {
		t.Fatalf("tampered migrate body = %q, want a fingerprint complaint", rec.Body.String())
	}
	if _, live := statsLocal(t, srvB, "mig-2"); live {
		t.Fatal("target kept the stream after refusing its fingerprint")
	}
}

// TestMigrateMismatchKeepsOlderTwin: a migration refused for its
// fingerprint must leave the target exactly as it was, even when the
// target holds an older live twin the shipped state would have replaced
// under the seq-ordered conflict rule: the twin stays live at its own
// steps, with its WAL intact.
func TestMigrateMismatchKeepsOlderTwin(t *testing.T) {
	const selfA, selfB = "http://a.test", "http://b.test"
	peers := []string{selfA, selfB}
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
	srvA := newClusterServer(t, selfA, peers, storeA)
	srvB := newClusterServer(t, selfB, peers, storeB)

	vecs := testVectors(10)
	for _, v := range vecs {
		observeLocal(t, srvA, "mig-3", v)
	}
	for _, v := range vecs[:3] {
		observeLocal(t, srvB, "mig-3", v)
	}
	hs, err := srvA.reg.Handoff("mig-3")
	if err != nil {
		t.Fatal(err)
	}
	hs.Fingerprint ^= 1
	if rec := postMigrate(srvB, "mig-3", migrateRequestFor(t, selfA, hs)); rec.Code != http.StatusConflict {
		t.Fatalf("tampered migrate = %d: %s", rec.Code, rec.Body.String())
	}
	twin, live := statsLocal(t, srvB, "mig-3")
	if !live || twin.Steps != 3 {
		t.Fatalf("target twin after the refused migration = %+v (live %v), want live at 3 steps", twin, live)
	}
	if recs, err := storeB.ReadWAL("mig-3"); err != nil || len(recs) != 3 {
		t.Fatalf("target twin's WAL holds %d records (err %v), want its 3", len(recs), err)
	}
}

// TestWALTailEndpoint: GET /wal serves the tail as NDJSON from the
// requested sequence, reports the consumed boundary in a header, and
// maps the registry's error taxonomy onto 4xx/5xx statuses (404 unknown,
// 410 rotated with a resync boundary, 501 without a store).
func TestWALTailEndpoint(t *testing.T) {
	const selfA, selfB = "http://a.test", "http://b.test"
	peers := []string{selfA, selfB}
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := newClusterServer(t, selfA, peers, store)
	for _, v := range testVectors(8) {
		observeLocal(t, srv, "w-1", v)
	}

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	rec := get("/v1/streams/w-1/wal?from=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("wal = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Streamad-Seq-Done"); got != "8" {
		t.Fatalf("seq-done header = %q, want 8", got)
	}
	var seqs []uint64
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var e cluster.WALEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad wal line %q: %v", sc.Text(), err)
		}
		if len(e.Vector) != 3 {
			t.Fatalf("wal entry %d has %d channels", e.Seq, len(e.Vector))
		}
		seqs = append(seqs, e.Seq)
	}
	if len(seqs) != 5 || seqs[0] != 3 || seqs[4] != 7 {
		t.Fatalf("wal seqs = %v, want 3..7", seqs)
	}
	if rec := get("/v1/streams/w-1/wal?from=xyz"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad from = %d, want 400", rec.Code)
	}
	if rec := get("/v1/streams/ghost/wal?from=0"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown stream = %d, want 404", rec.Code)
	}
	noStore := newClusterServer(t, selfA, peers, nil)
	observeLocal(t, noStore, "w-1", testVectors(1)[0])
	recNS := httptest.NewRecorder()
	noStore.ServeHTTP(recNS, httptest.NewRequest(http.MethodGet, "/v1/streams/w-1/wal?from=0", nil))
	if recNS.Code != http.StatusNotImplemented {
		t.Fatalf("wal without store = %d, want 501", recNS.Code)
	}
}

// TestWALTailRotated: once the snapshotter folds the tail into a
// checkpoint, a follower asking for pre-boundary records gets 410 plus
// the boundary to resync from.
func TestWALTailRotated(t *testing.T) {
	const selfA, selfB = "http://a.test", "http://b.test"
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := persistentConfig(store)
	cfg.SnapshotEvery = 4
	cfg.Cluster = &cluster.Config{
		Self: selfA, Peers: []string{selfA, selfB},
		ProbeInterval: time.Hour, RebalanceInterval: -1, StandbyInterval: -1,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for _, v := range testVectors(9) {
		observeLocal(t, srv, "w-2", v)
	}
	// The 4-entry trigger kicked the background snapshotter; poll until
	// the rotation is visible through the endpoint.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/w-2/wal?from=0", nil))
		if rec.Code == http.StatusGone {
			var gone cluster.WALGone
			if err := json.Unmarshal(rec.Body.Bytes(), &gone); err != nil {
				t.Fatalf("bad 410 body %q: %v", rec.Body.String(), err)
			}
			if gone.SnapshotSeq == 0 {
				t.Fatalf("410 body carries no resync boundary: %+v", gone)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("wal = %d: %s", rec.Code, rec.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatal("WAL never rotated despite the 4-entry snapshot trigger")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchLoopGuardAndDeadPeerErrors: a forwarded batch is always
// scored locally even when the ring disagrees (no second hop, no
// ping-pong), while an unforwarded batch aimed at a dead owner degrades
// to inline per-record errors at HTTP 200 — never a 5xx.
func TestBatchLoopGuardAndDeadPeerErrors(t *testing.T) {
	const selfA = "http://a.test"
	deadPeer := "http://127.0.0.1:1" // nothing listens on port 1
	srv := newClusterServer(t, selfA, []string{selfA, deadPeer}, nil)

	// Find a stream the ring assigns to the dead peer.
	var remote string
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("lg-%d", i)
		if srv.ClusterNode().Owner(id) == deadPeer {
			remote = id
			break
		}
	}
	if remote == "" {
		t.Fatal("ring assigned 1000 ids to one of two nodes — balance is broken")
	}

	line, _ := json.Marshal(map[string]any{"stream": remote, "vector": []float64{0, 0, 0}})
	// Loop guard: the forwarded header pins scoring here.
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(append(line, '\n')))
	req.Header.Set(cluster.ForwardedHeader, "test")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded batch = %d: %s", rec.Code, rec.Body.String())
	}
	var res BatchResult
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Error != "" || res.Node != selfA {
		t.Fatalf("forwarded record = %+v, want scored locally on %s", res, selfA)
	}

	// Without the header the batch routes to the owner — which is dead.
	// The failure must come back inline per record, not as a 5xx.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(append(line, '\n'))))
	if rec.Code != http.StatusOK {
		t.Fatalf("dead-owner batch = %d, want 200 with inline errors: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Error == "" || !strings.Contains(res.Error, "forward") {
		t.Fatalf("dead-owner record = %+v, want an inline forward error", res)
	}
}

// TestClusterMetricsExposition: every streamad_cluster_* family renders
// valid Prometheus text — HELP and TYPE precede the samples, labels are
// quoted, one node_up sample per member.
func TestClusterMetricsExposition(t *testing.T) {
	const selfA, selfB = "http://a.test", "http://b.test"
	srv := newClusterServer(t, selfA, []string{selfA, selfB}, nil)
	observeLocal(t, srv, "m-1", testVectors(1)[0])

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	families := []string{
		"streamad_cluster_node_up",
		"streamad_cluster_ring_nodes",
		"streamad_cluster_forwarded_records_total",
		"streamad_cluster_forward_errors_total",
		"streamad_cluster_proxied_records_total",
		"streamad_cluster_migrations_total",
		"streamad_cluster_standby_streams",
		"streamad_cluster_standby_replayed_total",
		"streamad_cluster_promotions_total",
	}
	for _, fam := range families {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("missing TYPE for %s", fam)
		}
	}
	nodeUp := map[string]string{}
	var migrations int
	for _, lineText := range strings.Split(body, "\n") {
		if strings.HasPrefix(lineText, "#") || strings.TrimSpace(lineText) == "" {
			continue
		}
		name, labels, err := parseSample(lineText)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", lineText, err)
		}
		switch name {
		case "streamad_cluster_node_up":
			nodeUp[labels["peer"]] = lineText
		case "streamad_cluster_migrations_total":
			if labels["direction"] == "" || labels["result"] == "" {
				t.Fatalf("migrations sample %q lacks direction/result labels", lineText)
			}
			migrations++
		}
	}
	if len(nodeUp) != 2 {
		t.Fatalf("node_up peers = %v, want both members", nodeUp)
	}
	if migrations != 4 {
		t.Fatalf("migrations_total samples = %d, want the 4 direction×result cells", migrations)
	}
}

// TestClusterE2E boots two real nodes on loopback listeners with the
// background loops running, and exercises the subsystem end to end:
// batch records route to their ring owners, a misplaced stream migrates
// live to its owner, and killing the owner promotes the survivor's warm
// standby so the stream keeps its history.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two HTTP servers with live probe/rebalance/standby loops")
	}
	var (
		lns   [2]net.Listener
		urls  [2]string
		srvs  [2]*Server
		https [2]*http.Server
	)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := []string{urls[0], urls[1]}
	for i := range srvs {
		store, err := persist.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := persistentConfig(store)
		cfg.Logf = t.Logf
		cfg.Cluster = &cluster.Config{
			Self: urls[i], Peers: peers,
			ProbeInterval: 50 * time.Millisecond, ProbeFailures: 2,
			RebalanceInterval: 100 * time.Millisecond,
			StandbyInterval:   50 * time.Millisecond,
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		https[i] = &http.Server{Handler: srv}
		go https[i].Serve(lns[i])
		srv.StartCluster()
		i := i
		t.Cleanup(func() {
			https[i].Close()
			srvs[i].Close()
			store.Close()
		})
	}

	// Forwarding: a batch posted to node 0 spanning many streams comes
	// back with each record stamped by its ring owner.
	var batch bytes.Buffer
	for i := 0; i < 12; i++ {
		line, _ := json.Marshal(map[string]any{"stream": fmt.Sprintf("e2e-%d", i), "vector": []float64{0, 0, 0}})
		batch.Write(line)
		batch.WriteByte('\n')
	}
	resp, err := http.Post(urls[0]+"/v1/observe", "application/x-ndjson", &batch)
	if err != nil {
		t.Fatal(err)
	}
	forwarded := 0
	sc := bufio.NewScanner(resp.Body)
	for i := 0; sc.Scan(); i++ {
		var res BatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("e2e-%d", i)
		owner := srvs[0].ClusterNode().Owner(id)
		if res.Error != "" || res.Node != owner {
			t.Fatalf("record %s = %+v, want scored on owner %s", id, res, owner)
		}
		if owner != urls[0] {
			forwarded++
		}
	}
	resp.Body.Close()
	if forwarded == 0 {
		t.Fatal("no record was forwarded — 12 streams all hashed to the entry node")
	}

	// Live migration: plant a stream on the wrong node; the rebalancer
	// must ship it to its owner with its history intact.
	var misplaced string
	for i := 0; ; i++ {
		if id := fmt.Sprintf("mis-%d", i); srvs[0].ClusterNode().Owner(id) == urls[1] {
			misplaced = id
			break
		}
	}
	for _, v := range testVectors(5) {
		observeLocal(t, srvs[0], misplaced, v)
	}
	waitFor(t, 10*time.Second, "misplaced stream to migrate to its owner", func() bool {
		st, live := statsLocal(t, srvs[1], misplaced)
		if !live || st.Steps != 5 {
			return false
		}
		_, still := statsLocal(t, srvs[0], misplaced)
		return !still
	})

	// Failover: feed a stream owned by node 0, let node 1's standby warm
	// up, then kill node 0 without ceremony. Node 1 must promote the
	// replica — history preserved — and keep scoring.
	var owned string
	for i := 0; ; i++ {
		if id := fmt.Sprintf("own-%d", i); srvs[0].ClusterNode().Owner(id) == urls[0] {
			owned = id
			break
		}
	}
	vecs := testVectors(1000)
	for _, v := range vecs[:30] {
		observeLocal(t, srvs[0], owned, v)
	}
	waitFor(t, 10*time.Second, "successor to hold a standby replica", func() bool {
		return srvs[1].ClusterNode().Stats().StandbyStreams > 0
	})
	// Keep the WAL moving while waiting: the replica bootstraps from a
	// point-in-time snapshot, so only records that land after its
	// bootstrap are visible to the tail — trickling one per poll
	// guarantees it has something to replay regardless of who won the
	// bootstrap/feed race.
	fed := 30
	waitFor(t, 10*time.Second, "standby to replay the owner's WAL tail", func() bool {
		observeLocal(t, srvs[0], owned, vecs[fed%len(vecs)])
		fed++
		return srvs[1].ClusterNode().Stats().StandbyReplayed > 0
	})
	https[0].Close()
	srvs[0].Close()
	waitFor(t, 10*time.Second, "survivor to promote the standby", func() bool {
		st, live := statsLocal(t, srvs[1], owned)
		return live && st.Steps > 0
	})
	if got := srvs[1].ClusterNode().Stats().Promotions; got == 0 {
		t.Fatal("survivor serves the stream but reports no promotion")
	}
	// The promoted stream keeps scoring in place.
	out := observeLocal(t, srvs[1], owned, vecs[fed%len(vecs)])
	if out.Step <= 1 {
		t.Fatalf("post-failover step = %d, want continuation of the stream's history", out.Step)
	}
}

// walGate fronts an owner's handler for TestStandbyFailoverBitIdentical.
// WAL-tail requests are served under a read lock, so holding the write
// lock parks the standby's tail; every request's from= is recorded (a
// follower asking from=N has replayed through N-1), and so are 410s.
type walGate struct {
	next http.Handler
	mu   sync.RWMutex
	from atomic.Uint64
	gone atomic.Int64
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (g *walGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/wal") {
		g.next.ServeHTTP(w, r)
		return
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	g.from.Store(from)
	sw := &statusWriter{ResponseWriter: w}
	g.next.ServeHTTP(sw, r)
	if sw.code == http.StatusGone {
		g.gone.Add(1)
	}
}

// TestStandbyFailoverBitIdentical follows one stream through the whole
// warm-standby life on two loopback nodes: the successor bootstraps a
// replica from the owner's snapshot, tails the owner's WAL, is forced
// through a 410 resync by an owner snapshot that rotates the WAL past
// it, and is promoted when the owner dies. The promoted stream must hold
// the owner's last acknowledged steps, ready and alerts, and its next 200
// results must be bit-identical to an uninterrupted library detector's.
func TestStandbyFailoverBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two HTTP servers with live probe and standby loops")
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
	var gate *walGate
	for i := range srvs {
		store, err := persist.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := persistentConfig(store)
		cfg.Logf = t.Logf
		cfg.Cluster = &cluster.Config{
			Self: urls[i], Peers: urls[:],
			ProbeInterval: 50 * time.Millisecond, ProbeFailures: 2,
			RebalanceInterval: -1, StandbyInterval: 20 * time.Millisecond,
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		var h http.Handler = srv
		if i == 0 {
			gate = &walGate{next: srv}
			h = gate
		}
		https[i] = &http.Server{Handler: h}
		go https[i].Serve(lns[i])
		srv.StartCluster()
		i := i
		t.Cleanup(func() {
			https[i].Close()
			srvs[i].Close()
			store.Close()
		})
	}
	var id string
	for i := 0; ; i++ {
		if id = fmt.Sprintf("sb-%d", i); srvs[0].ClusterNode().Owner(id) == urls[0] {
			break
		}
	}

	// The uninterrupted twin: the same library detector and alert policy,
	// stepped the way the registry steps a stream.
	const total, promotedAt = 320, 120
	vecs := testVectors(total)
	cfg := persistentConfig(nil)
	det, err := cfg.NewDetector(id)
	if err != nil {
		t.Fatal(err)
	}
	th := cfg.NewThresholder(id)
	want := make([]ObserveResponse, total)
	for i, v := range vecs {
		want[i] = ObserveResponse{Step: i}
		if res, ready := det.Step(v); ready {
			want[i].Ready = true
			want[i].Score = core.FiniteOrZero(res.Score)
			want[i].Threshold = core.FiniteOrZero(th.Threshold())
			want[i].Alert = th.Alert(res.Score)
		}
	}
	check := func(i int, got ObserveResponse) {
		t.Helper()
		w := want[i]
		if got.Step != w.Step || got.Ready != w.Ready || got.Alert != w.Alert ||
			math.Float64bits(got.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(got.Threshold) != math.Float64bits(w.Threshold) {
			t.Fatalf("vector %d: got %+v, twin %+v", i, got, w)
		}
	}
	feed := func(node, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			check(i, observeLocal(t, srvs[node], id, vecs[i]))
		}
	}
	tailedTo := func(n uint64) func() bool {
		return func() bool { return gate.from.Load() >= n }
	}

	// Bootstrap, then a WAL tail past the bootstrap point.
	feed(0, 0, 30)
	waitFor(t, 10*time.Second, "successor to bootstrap a standby replica", func() bool {
		return srvs[1].ClusterNode().Stats().StandbyStreams == 1
	})
	feed(0, 30, 50)
	waitFor(t, 10*time.Second, "standby to tail through seq 49", tailedTo(50))
	if got := srvs[1].ClusterNode().Stats().StandbyReplayed; got < 20 {
		t.Fatalf("standby replayed %d WAL records, want at least the 20 fed after its bootstrap", got)
	}

	// Park the tail, move the owner on and snapshot it: the WAL rotates
	// past the replica's boundary, so its next tail is a 410 and a resync.
	gate.mu.Lock()
	feed(0, 50, 70)
	if _, err := srvs[0].Registry().Snapshot(id); err != nil {
		gate.mu.Unlock()
		t.Fatal(err)
	}
	gate.mu.Unlock()
	waitFor(t, 10*time.Second, "standby to resync past the rotation", func() bool {
		return gate.gone.Load() > 0 && gate.from.Load() >= 70
	})
	feed(0, 70, promotedAt)
	waitFor(t, 10*time.Second, "standby to tail through the owner's last ack", tailedTo(promotedAt))
	owner, ok := statsLocal(t, srvs[0], id)
	if !ok || owner.Steps != promotedAt {
		t.Fatalf("owner stats = %+v (live %v), want %d steps", owner, ok, promotedAt)
	}

	// Owner death, then promotion on the survivor.
	https[0].Close()
	srvs[0].Close()
	waitFor(t, 10*time.Second, "survivor to promote the standby", func() bool {
		return srvs[1].ClusterNode().Stats().Promotions == 1
	})
	promoted, live := statsLocal(t, srvs[1], id)
	if !live {
		t.Fatal("promoted stream is not live on the survivor")
	}
	if promoted.Steps != owner.Steps || promoted.Ready != owner.Ready || promoted.Alerts != owner.Alerts {
		t.Fatalf("promoted counters steps/ready/alerts = %d/%d/%d, owner acknowledged %d/%d/%d",
			promoted.Steps, promoted.Ready, promoted.Alerts, owner.Steps, owner.Ready, owner.Alerts)
	}
	feed(1, promotedAt, total)
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
