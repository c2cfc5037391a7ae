package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamad/internal/ingest"
)

// Config wires a Node to its peers.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers.
	Self string
	// Peers is the full static membership, self included, as base URLs
	// ("http://host:port"). Liveness within the set is probed; the set
	// itself never changes at runtime.
	Peers []string
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe failures mark a peer
	// down (default 2). One success marks it back up.
	ProbeFailures int
	// RebalanceInterval is how often misplaced local streams are checked
	// and migrated to their ring owners (default 2s; <0 disables).
	RebalanceInterval time.Duration
	// StandbyInterval is how often standby replicas sync against their
	// owners' WALs (default 1s; <0 disables replication).
	StandbyInterval time.Duration
	// Logf receives cluster lifecycle events (peer transitions,
	// migrations, promotions). Defaults to a no-op.
	Logf func(format string, args ...any)
}

// peerState is one member's health and traffic counters. Membership is
// static, so the map holding these is never written after NewNode and
// needs no lock; the fields that change are atomics (fails is owned by
// the prober goroutine alone).
type peerState struct {
	alive       atomic.Bool
	fails       int
	forwarded   atomic.Uint64
	forwardErrs atomic.Uint64
}

// Node is one member of the cluster: it owns the ring view, probes the
// other members, forwards records to their owners, migrates misplaced
// streams away and keeps warm standbys for streams it backs up.
type Node struct {
	cfg    Config
	self   string
	order  []string // sorted peer URLs, self included
	peers  map[string]*peerState
	ring   atomic.Pointer[Ring]
	client *http.Client
	probec *http.Client
	reg    *ingest.Registry

	forwardedIn     atomic.Uint64
	migInOK         atomic.Uint64
	migInErr        atomic.Uint64
	migOutOK        atomic.Uint64
	migOutErr       atomic.Uint64
	standbyReplayed atomic.Uint64
	promotions      atomic.Uint64

	repMu    sync.Mutex
	replicas map[string]*ingest.Replica

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewNode validates the membership and builds the node with an
// optimistic all-alive ring; the prober refines it.
func New(cfg Config) (*Node, error) {
	cfg.Self = strings.TrimRight(cfg.Self, "/")
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: self URL required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 2
	}
	if cfg.RebalanceInterval == 0 {
		cfg.RebalanceInterval = 2 * time.Second
	}
	if cfg.StandbyInterval == 0 {
		cfg.StandbyInterval = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:      cfg,
		self:     cfg.Self,
		peers:    make(map[string]*peerState),
		client:   &http.Client{Timeout: 30 * time.Second},
		replicas: make(map[string]*ingest.Replica),
		stop:     make(chan struct{}),
	}
	n.probec = &http.Client{Timeout: cfg.ProbeInterval}
	for _, p := range cfg.Peers {
		p = strings.TrimRight(p, "/")
		if p == "" {
			continue
		}
		if _, dup := n.peers[p]; dup {
			continue
		}
		ps := &peerState{}
		ps.alive.Store(true)
		n.peers[p] = ps
		n.order = append(n.order, p)
	}
	if _, ok := n.peers[n.self]; !ok {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", n.self, cfg.Peers)
	}
	sort.Strings(n.order)
	n.rebuildRing()
	return n, nil
}

// Start attaches the node to its registry and launches the background
// loops (prober, rebalancer, standby sync); they exit on n.stop and are
// joined by Close via n.wg. Single-node "clusters" stay inert: every
// lookup answers self.
//
//streamad:lifecycle — declared owner of the prober, rebalancer and standby goroutines.
func (n *Node) Start(reg *ingest.Registry) {
	n.reg = reg
	if len(n.order) < 2 {
		return
	}
	n.wg.Add(1)
	go n.probeLoop()
	if n.cfg.RebalanceInterval > 0 {
		n.wg.Add(1)
		go n.rebalanceLoop()
	}
	if n.cfg.StandbyInterval > 0 {
		n.wg.Add(1)
		go n.standbyLoop()
	}
}

// Close stops and joins the background loops and discards the standby
// replicas.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.repMu.Lock()
	defer n.repMu.Unlock()
	for id, rep := range n.replicas {
		rep.Close()
		delete(n.replicas, id)
	}
}

// Self returns this node's advertised URL.
func (n *Node) Self() string { return n.self }

// Owner maps a stream id to the node currently responsible for it.
func (n *Node) Owner(id string) string { return n.ring.Load().Owner(id) }

// Backup returns the stream's first ring successor — the node that keeps
// its warm standby — or "" when the live member set has no second node.
func (n *Node) Backup(id string) string {
	owners := n.ring.Load().Owners(id, 2)
	if len(owners) < 2 {
		return ""
	}
	return owners[1]
}

// PeerAlive reports the probed liveness of a member URL (self is always
// alive; unknown URLs never are).
func (n *Node) PeerAlive(url string) bool {
	if url == n.self {
		return true
	}
	ps, ok := n.peers[url]
	return ok && ps.alive.Load()
}

// Client returns the node's data-path HTTP client, shared with the
// server's stats proxy.
func (n *Node) Client() *http.Client { return n.client }

// probeLoop drives the health probes.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.probeOnce()
		}
	}
}

// probeOnce probes every remote member and rebuilds the ring when any
// transitions. Down needs ProbeFailures consecutive misses; up needs one
// hit, so a flapping peer rejoins quickly but leaves deliberately.
func (n *Node) probeOnce() {
	changed := false
	for _, url := range n.order {
		if url == n.self {
			continue
		}
		ps := n.peers[url]
		if n.probe(url) {
			ps.fails = 0
			if !ps.alive.Load() {
				ps.alive.Store(true)
				changed = true
				n.cfg.Logf("streamad: cluster peer %s up", url)
			}
			continue
		}
		ps.fails++
		if ps.fails >= n.cfg.ProbeFailures && ps.alive.Load() {
			ps.alive.Store(false)
			changed = true
			n.cfg.Logf("streamad: cluster peer %s down after %d failed probes", url, ps.fails)
		}
	}
	if changed {
		n.rebuildRing()
	}
}

func (n *Node) probe(url string) bool {
	resp, err := n.probec.Get(url + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// rebuildRing recomputes placement from the live member view. Self is
// always a member of its own ring, so lookups never come back empty.
func (n *Node) rebuildRing() {
	alive := make([]string, 0, len(n.order))
	for _, url := range n.order {
		if url == n.self || n.peers[url].alive.Load() {
			alive = append(alive, url)
		}
	}
	n.ring.Store(NewRing(alive, 64)) // 64 virtual points per member
}

// ForwardBatch ships an NDJSON batch slice to a peer's observe endpoint
// with the loop-guard header set and returns the peer's response body
// (its BatchResult lines, in order). records sizes the per-peer counter.
func (n *Node) ForwardBatch(peer string, records int, body []byte) ([]byte, error) {
	out, err := n.forward(peer, body)
	ps := n.peers[peer]
	if err != nil {
		if ps != nil {
			ps.forwardErrs.Add(1)
		}
		return nil, err
	}
	if ps != nil {
		ps.forwarded.Add(uint64(records))
	}
	return out, nil
}

func (n *Node) forward(peer string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, peer+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(ForwardedHeader, n.self)
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: peer %s returned %s", peer, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// NoteForwardedIn counts records received with the loop-guard header —
// work this node scored on another node's behalf.
func (n *Node) NoteForwardedIn(records int) {
	if records > 0 {
		n.forwardedIn.Add(uint64(records))
	}
}

// NoteMigrationIn counts an inbound migration attempt's outcome (the
// server's /migrate handler reports here).
func (n *Node) NoteMigrationIn(ok bool) {
	if ok {
		n.migInOK.Add(1)
	} else {
		n.migInErr.Add(1)
	}
}

// PeerStat is one member's view for the metrics endpoint.
type PeerStat struct {
	URL           string
	Alive         bool
	Forwarded     uint64
	ForwardErrors uint64
}

// Stats is an instantaneous snapshot of the node's cluster counters.
type Stats struct {
	Self             string
	Peers            []PeerStat
	RingNodes        int
	ForwardedIn      uint64
	MigrationsInOK   uint64
	MigrationsInErr  uint64
	MigrationsOutOK  uint64
	MigrationsOutErr uint64
	StandbyStreams   int
	StandbyReplayed  uint64
	Promotions       uint64
}

// Stats snapshots the node's counters for /metrics rendering. Peers come
// back sorted by URL, self included.
func (n *Node) Stats() Stats {
	s := Stats{
		Self:             n.self,
		RingNodes:        len(n.ring.Load().Nodes()),
		ForwardedIn:      n.forwardedIn.Load(),
		MigrationsInOK:   n.migInOK.Load(),
		MigrationsInErr:  n.migInErr.Load(),
		MigrationsOutOK:  n.migOutOK.Load(),
		MigrationsOutErr: n.migOutErr.Load(),
		StandbyReplayed:  n.standbyReplayed.Load(),
		Promotions:       n.promotions.Load(),
	}
	n.repMu.Lock()
	s.StandbyStreams = len(n.replicas)
	n.repMu.Unlock()
	for _, url := range n.order {
		ps := n.peers[url]
		s.Peers = append(s.Peers, PeerStat{
			URL:           url,
			Alive:         url == n.self || ps.alive.Load(),
			Forwarded:     ps.forwarded.Load(),
			ForwardErrors: ps.forwardErrs.Load(),
		})
	}
	return s
}
