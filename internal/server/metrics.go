package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"streamad/internal/cluster"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/pool"
	"streamad/internal/stats"
)

// /metrics is rendered by one small registry. metricFamilies declares
// every family exactly once — name, TYPE, HELP, ordered label names and
// the collector that reads this scrape's snapshots — and metricSet.render
// owns everything the Prometheus text format asks for: HELP/TYPE lines,
// label order and quoting, histogram cumulation, the rule that a family
// without samples in a scrape renders nothing, and the per-stream series
// cap. What used to need a linter cannot be written here: a duplicate or
// malformed family panics when the server is built, a sample with the
// wrong number of label values panics when it is emitted, and a family
// gets a stream label only by being collected per rendered stream.

// metricKind is a family's Prometheus TYPE.
type metricKind uint8

const (
	counter metricKind = iota
	gauge
	histogram
)

func (k metricKind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// num is a sample value: counts render as integers, floats in %g form.
type num struct {
	i       int64
	f       float64
	isFloat bool
}

func count[T ~int | ~int64 | ~uint64](v T) num { return num{i: int64(v)} }

func float(v float64) num { return num{f: v, isFloat: true} }

func onOff(b bool) num {
	if b {
		return num{i: 1}
	}
	return num{}
}

// family is one /metrics family. Exactly one collector is set: perStream
// for the families whose first label is "stream" (render calls it once
// per rendered stream and supplies that label itself), collect for the
// rest.
type family struct {
	name      string
	kind      metricKind
	help      string
	labels    []string
	collect   func(sc *scrapeInput, e *emitter)
	perStream func(r *ingest.StreamInfo, e *emitter)
}

// scrapeInput is what one GET /metrics reads from the rest of the process.
// render sorts rows by id and cuts them to the stream cap before any
// collector runs.
type scrapeInput struct {
	rows    []ingest.StreamInfo
	omitted int // streams cut by the cap
	ingest  ingest.Stats
	observe stats.HistogramSnapshot
	trainer *pool.Stats    // nil without a trainer pool
	cluster *cluster.Stats // nil outside cluster mode
}

// metricSet is a validated family list plus the per-stream series cap
// (0 = unlimited).
type metricSet struct {
	families  []family
	streamCap int
}

// newMetricSet panics on a declaration no scrape could render correctly:
// the family table is code, so this is a bug found at server start.
func newMetricSet(families []family, streamCap int) *metricSet {
	series := make(map[string]bool)
	claim := func(name string) {
		if series[name] {
			panic(fmt.Sprintf("metrics: series name %s declared twice", name))
		}
		series[name] = true
	}
	for _, f := range families {
		if f.name == "" || f.help == "" || f.kind > histogram {
			panic(fmt.Sprintf("metrics: family %q needs a name, a help text and a valid kind", f.name))
		}
		claim(f.name)
		if f.kind == histogram {
			claim(f.name + "_bucket")
			claim(f.name + "_sum")
			claim(f.name + "_count")
		}
		seen := make(map[string]bool)
		for i, l := range f.labels {
			if l == "" || l == "le" || seen[l] || (l == "stream" && i > 0) {
				panic(fmt.Sprintf("metrics: family %s has a bad label list %q", f.name, f.labels))
			}
			seen[l] = true
		}
		if (f.collect == nil) == (f.perStream == nil) || seen["stream"] != (f.perStream != nil) {
			panic(fmt.Sprintf("metrics: family %s must be per-stream exactly when its first label is stream", f.name))
		}
	}
	return &metricSet{families: families, streamCap: streamCap}
}

// render produces the exposition body for one scrape. Streams are ranked
// by id so the subset under the cap is stable across scrapes.
func (m *metricSet) render(sc *scrapeInput) []byte {
	sort.Slice(sc.rows, func(i, j int) bool { return sc.rows[i].ID < sc.rows[j].ID })
	if m.streamCap > 0 && len(sc.rows) > m.streamCap {
		sc.omitted = len(sc.rows) - m.streamCap
		sc.rows = sc.rows[:m.streamCap]
	}
	var buf bytes.Buffer
	for i := range m.families {
		e := emitter{buf: &buf, fam: &m.families[i]}
		if e.fam.perStream == nil {
			e.fam.collect(sc, &e)
			continue
		}
		for j := range sc.rows {
			e.stream = sc.rows[j].ID
			e.fam.perStream(&sc.rows[j], &e)
		}
	}
	return buf.Bytes()
}

// emitter writes one family's samples; the HELP/TYPE header goes out with
// the first of them.
type emitter struct {
	buf    *bytes.Buffer
	fam    *family
	stream string // current stream id of a per-stream family
	headed bool
}

// put emits one counter or gauge sample; values follow the family's
// label names (minus the leading stream label, which render supplies).
func (e *emitter) put(v num, values ...string) {
	if e.fam.kind == histogram {
		panic("metrics: put on histogram family " + e.fam.name)
	}
	e.sample("", "", v, values)
}

// hist emits one histogram: per-bucket counts (the last one the overflow
// above every bound) are cumulated in a single pass, so the +Inf bucket,
// _count and the finite buckets always agree.
func (e *emitter) hist(bounds []float64, buckets []uint64, sum num, values ...string) {
	if e.fam.kind != histogram {
		panic("metrics: hist on non-histogram family " + e.fam.name)
	}
	var cum uint64
	for i, b := range bounds {
		cum += buckets[i]
		e.sample("_bucket", strconv.FormatFloat(b, 'g', -1, 64), count(cum), values)
	}
	cum += buckets[len(bounds)]
	e.sample("_bucket", "+Inf", count(cum), values)
	e.sample("_sum", "", sum, values)
	e.sample("_count", "", count(cum), values)
}

func (e *emitter) sample(suffix, le string, v num, values []string) {
	f, b := e.fam, e.buf
	names := f.labels
	if f.perStream != nil {
		names = names[1:]
	}
	if len(values) != len(names) {
		panic(fmt.Sprintf("metrics: family %s takes labels %q, got values %q", f.name, names, values))
	}
	if !e.headed {
		e.headed = true
		for _, part := range []string{"# HELP ", f.name, " ", f.help, "\n# TYPE ", f.name, " ", f.kind.String(), "\n"} {
			b.WriteString(part)
		}
	}
	b.WriteString(f.name)
	b.WriteString(suffix)
	sep := byte('{')
	label := func(name, value string) {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(value))
	}
	if f.perStream != nil {
		label("stream", e.stream)
	}
	for i, name := range names {
		label(name, values[i])
	}
	if le != "" {
		label("le", le)
	}
	if sep == ',' {
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	if v.isFloat {
		b.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
	} else {
		b.WriteString(strconv.FormatInt(v.i, 10))
	}
	b.WriteByte('\n')
}

// handleMetrics exposes the families in the Prometheus text exposition
// format, so the daemon plugs into standard scraping setups without any
// dependency. Every snapshot is taken first (per-stream locks only); all
// encoding happens outside any lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sc := &scrapeInput{rows: s.reg.Streams(), ingest: s.reg.Stats(), observe: s.obsLat.Snapshot()}
	if s.trainer != nil {
		ts := s.trainer.Stats()
		sc.trainer = &ts
	}
	if s.node != nil {
		cs := s.node.Stats()
		sc.cluster = &cs
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(s.metrics.render(sc))
}

// ObserveLatencyBounds are the upper bucket bounds, in seconds, of the
// observe request-latency histogram: sub-ms resolution at the bottom
// (scored-in-memory requests), stretching to 2.5s so queue-backed tail
// latency under overload is still resolved.
var ObserveLatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Collector adapters. when runs emit only if the section get selects is
// present in this scrape: fine-tune and cascade statistics exist for
// some streams, trainer and cluster statistics for some servers.
func when[S, T any](get func(*S) *T, emit func(*T, *emitter)) func(*S, *emitter) {
	return func(src *S, e *emitter) {
		if section := get(src); section != nil {
			emit(section, e)
		}
	}
}

func fineTuneOf(r *ingest.StreamInfo) *core.FineTuneStats { return r.FineTune }
func cascadeOf(r *ingest.StreamInfo) *core.CascadeStats   { return r.Cascade }
func trainerOf(sc *scrapeInput) *pool.Stats               { return sc.trainer }
func clusterOf(sc *scrapeInput) *cluster.Stats            { return sc.cluster }

// eachMember emits one sample per member of every ensemble in the
// stream's detector tree; the member label is the member's child path from
// the root, which for a root ensemble is its index.
func eachMember(value func(m *core.MemberStat) num) func(*ingest.StreamInfo, *emitter) {
	return func(r *ingest.StreamInfo, e *emitter) {
		for i := range r.Members {
			e.put(value(&r.Members[i]), r.Members[i].Path(), r.Members[i].Label)
		}
	}
}

// eachPeer emits one sample per cluster member, sorted by URL (self
// included: its up gauge is pinned to 1 and its forward counters stay 0).
func eachPeer(value func(p *cluster.PeerStat) num) func(*scrapeInput, *emitter) {
	return when(clusterOf, func(cs *cluster.Stats, e *emitter) {
		for i := range cs.Peers {
			e.put(value(&cs.Peers[i]), cs.Peers[i].URL)
		}
	})
}

// metricFamilies is the one declaration site of the /metrics contract, in
// exposition order. To add a family, add an entry here; its collector
// reads the scrapeInput (extend it and handleMetrics if it needs a new
// snapshot) and nothing else has to change.
func metricFamilies() []family {
	stream := []string{"stream"}
	streamGate := []string{"stream", "gate"}
	member := []string{"stream", "member", "spec"}
	policy := []string{"policy"}
	shard := []string{"shard"}
	peer := []string{"peer"}
	return []family{
		{name: "streamad_metrics_streams_omitted", kind: gauge, help: "Streams beyond the per-stream series cap (-metrics-stream-cap); their series are not rendered.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.omitted)) }},
		{name: "streamad_steps_total", kind: counter, help: "Stream vectors observed per stream.", labels: stream,
			perStream: func(r *ingest.StreamInfo, e *emitter) { e.put(count(r.Steps)) }},
		{name: "streamad_ready_steps_total", kind: counter, help: "Scored (post-warmup) steps per stream.", labels: stream,
			perStream: func(r *ingest.StreamInfo, e *emitter) { e.put(count(r.Ready)) }},
		{name: "streamad_alerts_total", kind: counter, help: "Threshold crossings per stream.", labels: stream,
			perStream: func(r *ingest.StreamInfo, e *emitter) { e.put(count(r.Alerts)) }},

		// The serve/train split, for streams whose detector exposes
		// fine-tune statistics.
		{name: "streamad_finetune_inflight", kind: gauge, help: "Whether a background fine-tune is pending adoption (0/1; always 0 in sync mode).", labels: stream,
			perStream: when(fineTuneOf, func(ft *core.FineTuneStats, e *emitter) { e.put(onOff(ft.InFlight)) })},
		{name: "streamad_finetune_skipped_total", kind: counter, help: "Drift triggers dropped because a fine-tune was already in flight.", labels: stream,
			perStream: when(fineTuneOf, func(ft *core.FineTuneStats, e *emitter) { e.put(count(ft.Skipped)) })},
		{name: "streamad_finetune_seconds", kind: histogram, help: "Fine-tuning epoch duration.", labels: stream,
			perStream: when(fineTuneOf, func(ft *core.FineTuneStats, e *emitter) {
				e.hist(core.FineTuneBuckets, ft.Buckets, float(ft.TotalSeconds))
			})},

		// Streams with a cascade in their detector tree: per-tier traffic
		// and the conformal admission gate's target and observed rates.
		{name: "streamad_cascade_screened_total", kind: counter, help: "Vectors answered by the tier-0 gate alone.", labels: streamGate,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(count(cs.Screened), cs.GateLabel) })},
		{name: "streamad_cascade_admitted_total", kind: counter, help: "Vectors the conformal gate admitted to the heavy tier.", labels: streamGate,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(count(cs.Admitted), cs.GateLabel) })},
		{name: "streamad_cascade_forwarded_total", kind: counter, help: "Vectors forwarded to the heavy tier unconditionally during ramp-up.", labels: streamGate,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(count(cs.Forwarded), cs.GateLabel) })},
		{name: "streamad_cascade_admit_target", kind: gauge, help: "Configured false-admission rate epsilon of the conformal gate.", labels: stream,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(float(cs.AdmitTarget)) })},
		{name: "streamad_cascade_admission_rate", kind: gauge, help: "Observed admission fraction among gate decisions.", labels: stream,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(float(cs.AdmissionRate)) })},
		{name: "streamad_cascade_heavy_rate", kind: gauge, help: "Fraction of all traffic that reached the heavy tier.", labels: stream,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(float(cs.HeavyRate)) })},
		{name: "streamad_cascade_screening", kind: gauge, help: "Whether the conformal gate is currently screening (0 = ramp-up forwarding).", labels: stream,
			perStream: when(cascadeOf, func(cs *core.CascadeStats, e *emitter) { e.put(onOff(cs.Screening)) })},

		// The ingestion layer, from one registry stats snapshot.
		{name: "streamad_ingest_shed_total", kind: counter, help: "Vectors rejected by the shed overload policy.", labels: policy,
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.ShedTotal), sc.ingest.Overload.String()) }},
		{name: "streamad_ingest_dropped_total", kind: counter, help: "Vectors discarded by the drop-oldest overload policy.", labels: policy,
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.DroppedTotal), sc.ingest.Overload.String()) }},
		{name: "streamad_ingest_evicted_streams_total", kind: counter, help: "Idle streams checkpointed and unloaded by the TTL evictor.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.EvictedTotal)) }},
		{name: "streamad_ingest_shard_streams", kind: gauge, help: "Live streams resident per registry shard.", labels: shard,
			collect: func(sc *scrapeInput, e *emitter) {
				for i, sh := range sc.ingest.PerShard {
					e.put(count(sh.Streams), strconv.Itoa(i))
				}
			}},
		{name: "streamad_ingest_queue_depth", kind: gauge, help: "Vectors queued per registry shard.", labels: shard,
			collect: func(sc *scrapeInput, e *emitter) {
				for i, sh := range sc.ingest.PerShard {
					e.put(count(sh.QueueDepth), strconv.Itoa(i))
				}
			}},
		{name: "streamad_ingest_batch_size", kind: histogram, help: "Vectors coalesced per dispatcher pass.",
			collect: func(sc *scrapeInput, e *emitter) {
				h := sc.ingest.BatchSize
				e.hist(h.Bounds, h.Buckets, count(h.Sum))
			}},

		// The residency ladder: instantaneous occupancy and transitions.
		{name: "streamad_tier_streams", kind: gauge, help: "Streams per residency tier (hot+warm resident, cold checkpointed on disk).", labels: []string{"tier"},
			collect: func(sc *scrapeInput, e *emitter) {
				e.put(count(sc.ingest.HotStreams), "hot")
				e.put(count(sc.ingest.WarmStreams), "warm")
				e.put(count(sc.ingest.ColdStreams), "cold")
			}},
		{name: "streamad_tier_swap_bytes", kind: gauge, help: "Size of the swap file holding the warm streams' paged-out window state.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.SwapBytes)) }},
		{name: "streamad_tier_transitions_total", kind: counter, help: "Stream moves along the residency ladder.", labels: []string{"from", "to"},
			collect: func(sc *scrapeInput, e *emitter) {
				e.put(count(sc.ingest.HotToWarm), "hot", "warm")
				e.put(count(sc.ingest.WarmToHot), "warm", "hot")
				e.put(count(sc.ingest.WarmToCold), "warm", "cold")
				e.put(count(sc.ingest.HotToCold), "hot", "cold")
				e.put(count(sc.ingest.ColdToHot), "cold", "hot")
			}},

		// The shared scoring pool and, when the server was handed one,
		// the trainer pool.
		{name: "streamad_pool_score_workers", kind: gauge, help: "Scoring pool worker goroutines.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.ScorePool.Workers)) }},
		{name: "streamad_pool_score_queue_depth", kind: gauge, help: "Tasks waiting for a scoring worker.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.ScorePool.Queued)) }},
		{name: "streamad_pool_score_running", kind: gauge, help: "Scoring tasks currently executing.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.ScorePool.Running)) }},
		{name: "streamad_pool_score_tasks_total", kind: counter, help: "Scoring tasks completed.",
			collect: func(sc *scrapeInput, e *emitter) { e.put(count(sc.ingest.ScorePool.Completed)) }},
		{name: "streamad_pool_train_slots", kind: gauge, help: "Concurrent training slots.",
			collect: when(trainerOf, func(ts *pool.Stats, e *emitter) { e.put(count(ts.Workers)) })},
		{name: "streamad_pool_train_queue_depth", kind: gauge, help: "Fine-tunes waiting for a training slot.",
			collect: when(trainerOf, func(ts *pool.Stats, e *emitter) { e.put(count(ts.Queued)) })},
		{name: "streamad_pool_train_running", kind: gauge, help: "Fine-tunes currently training.",
			collect: when(trainerOf, func(ts *pool.Stats, e *emitter) { e.put(count(ts.Running)) })},
		{name: "streamad_pool_train_total", kind: counter, help: "Fine-tunes completed through the trainer pool.",
			collect: when(trainerOf, func(ts *pool.Stats, e *emitter) { e.put(count(ts.Completed)) })},
		{name: "streamad_pool_train_canceled_total", kind: counter, help: "Queued fine-tunes canceled before a slot ran them.",
			collect: when(trainerOf, func(ts *pool.Stats, e *emitter) { e.put(count(ts.Canceled)) })},

		{name: "streamad_ingest_observe_seconds", kind: histogram, help: "Observe request latency over both observe endpoints, from body receipt to the last result written.",
			collect: func(sc *scrapeInput, e *emitter) {
				h := sc.observe
				e.hist(h.Bounds, h.Buckets, float(float64(h.Sum)/1e9))
			}},

		// Cluster mode, from one node stats snapshot.
		{name: "streamad_cluster_node_up", kind: gauge, help: "Health-probe view of each cluster member (1 = alive).", labels: peer,
			collect: eachPeer(func(p *cluster.PeerStat) num { return onOff(p.Alive) })},
		{name: "streamad_cluster_ring_nodes", kind: gauge, help: "Members currently on the consistent-hash ring.",
			collect: when(clusterOf, func(cs *cluster.Stats, e *emitter) { e.put(count(cs.RingNodes)) })},
		{name: "streamad_cluster_forwarded_records_total", kind: counter, help: "Records forwarded to each peer for scoring.", labels: peer,
			collect: eachPeer(func(p *cluster.PeerStat) num { return count(p.Forwarded) })},
		{name: "streamad_cluster_forward_errors_total", kind: counter, help: "Failed forward attempts per peer.", labels: peer,
			collect: eachPeer(func(p *cluster.PeerStat) num { return count(p.ForwardErrors) })},
		{name: "streamad_cluster_proxied_records_total", kind: counter, help: "Records this node scored on behalf of peers (received forwarded).",
			collect: when(clusterOf, func(cs *cluster.Stats, e *emitter) { e.put(count(cs.ForwardedIn)) })},
		{name: "streamad_cluster_migrations_total", kind: counter, help: "Stream migrations by direction and result.", labels: []string{"direction", "result"},
			collect: when(clusterOf, func(cs *cluster.Stats, e *emitter) {
				e.put(count(cs.MigrationsInOK), "in", "ok")
				e.put(count(cs.MigrationsInErr), "in", "error")
				e.put(count(cs.MigrationsOutOK), "out", "ok")
				e.put(count(cs.MigrationsOutErr), "out", "error")
			})},
		{name: "streamad_cluster_standby_streams", kind: gauge, help: "Warm standby replicas this node is holding.",
			collect: when(clusterOf, func(cs *cluster.Stats, e *emitter) { e.put(count(cs.StandbyStreams)) })},
		{name: "streamad_cluster_standby_replayed_total", kind: counter, help: "WAL records replayed into standby replicas.",
			collect: when(clusterOf, func(cs *cluster.Stats, e *emitter) { e.put(count(cs.StandbyReplayed)) })},
		{name: "streamad_cluster_promotions_total", kind: counter, help: "Standby replicas promoted to live streams after owner failure.",
			collect: when(clusterOf, func(cs *cluster.Stats, e *emitter) { e.put(count(cs.Promotions)) })},

		// One row per member of every ensemble in a stream's detector tree.
		{name: "streamad_ensemble_member_ready_total", kind: counter, help: "Scored steps per ensemble member.", labels: member,
			perStream: eachMember(func(m *core.MemberStat) num { return count(m.Ready) })},
		{name: "streamad_ensemble_member_fine_tunes_total", kind: counter, help: "Drift-triggered fine-tunes per ensemble member.", labels: member,
			perStream: eachMember(func(m *core.MemberStat) num { return count(m.FineTunes) })},
		{name: "streamad_ensemble_member_agreement", kind: gauge, help: "Rolling consensus-agreement counter per ensemble member.", labels: member,
			perStream: eachMember(func(m *core.MemberStat) num { return count(m.Agreement) })},
		{name: "streamad_ensemble_member_weight", kind: gauge, help: "Normalized aggregation weight per ensemble member (0 when pruned).", labels: member,
			perStream: eachMember(func(m *core.MemberStat) num { return float(m.Weight) })},
		{name: "streamad_ensemble_member_disabled", kind: gauge, help: "Whether the pruning policy currently excludes the member (0/1).", labels: member,
			perStream: eachMember(func(m *core.MemberStat) num { return onOff(m.Disabled) })},
	}
}
