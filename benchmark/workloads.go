package main

import (
	"fmt"
	"math"
	"time"
)

// shape is how a workload packs vectors into requests.
type shape int

const (
	// shapeTick: one vector for each of perRequest streams the connection
	// owns (perRequest different WAL files and dispatcher hops).
	shapeTick shape = iota
	// shapeBurst: perRequest consecutive vectors of one stream, which the
	// dispatcher coalesces into few detector passes.
	shapeBurst
	// shapeChurn: one vector for every always-hot stream plus a
	// churnVisit-vector visit to a paged-out stream and one to an evicted
	// stream.
	shapeChurn
	// shapeSingle: one vector through POST /v1/streams/{id}/observe.
	shapeSingle
)

// The tier-churn schedule. A connection owns 256 streams and sends 37.5
// requests/s. Every request carries one vector for each of its 24
// always-hot streams, one visit to its warm set (56 streams, each
// revisited every 56 requests ≈ 1.5 s: hot→warm→hot) and one to its cold
// set (176 streams, every 176 requests ≈ 4.7 s: →cold,
// restore-on-observe). Every request pays one page-in and one restore,
// so request latency has one mode, not three.
const churnVisit = 4 // consecutive vectors per revisit

// churnSets splits the streams a connection owns (a multiple of 32)
// into the always-hot, warm and cold sets, 3:7:22.
func churnSets(own int) (hot, warm, cold int) {
	return own * 3 / 32, own * 7 / 32, own * 22 / 32
}

// workload is one frozen traffic mix. Everything the server sees is
// derived from these fields, the seed and the measured seconds.
type workload struct {
	name string
	why  string

	openLoop bool
	conns    int
	streams  int
	channels int
	spec     string // detector pipeline, streamadd -spec
	window   int    // streamadd -w
	train    int    // streamadd -m
	// warmAfter and streamTTL are streamadd's -tier-warm-after and
	// -stream-ttl (zero: no residency ladder).
	warmAfter, streamTTL time.Duration
	// snapEvery overrides -snapshot-entries (default 256).
	snapEvery int

	shape      shape
	perRequest int

	// warm is the warm-up vectors each stream receives during set-up:
	// past w+m and the initial Fit, and enough of them that set-up does
	// ≥ 3 s of deterministic work.
	warm int
	// reqRate is requests per connection per measured second. For the
	// open loop it is the send rate; for closed loops it is the builder's
	// sizing of the fixed work, frozen at today's speed so that the timed
	// phase lasts about the requested seconds.
	reqRate float64
	// verify lists the streams whose every response is fully decoded and
	// digest-checked against the in-process reference.
	verify []int
}

// workloads is the benchmark: four mixes that stress different layers.
var workloads = []*workload{
	{
		name:  "ingest-light",
		why:   "closed loop, 2 connections, 64-stream ticks over 256 cheap arima streams: decode, admission, dispatch and WAL append dominate, the detector is ~free",
		conns: 2, streams: 256, channels: 8,
		spec: "arima+sw+musigma", window: 16, train: 100,
		shape: shapeTick, perRequest: 64,
		warm: 1300, reqRate: 390,
		verify: []int{0, 63, 64, 191, 255},
	},
	{
		name:  "model-heavy",
		why:   "closed loop, 2 connections, 16-vector bursts on 6 usad+nbeats ensembles: nn kernels, drift-triggered fine-tunes and ensemble fork-join dominate, transport and persistence are noise",
		conns: 2, streams: 6, channels: 8,
		spec: "ensemble(usad+sw+musigma, nbeats+sw+musigma; agg=mean)", window: 16, train: 100,
		shape: shapeBurst, perRequest: 16,
		// No count-triggered snapshot inside the timed phase (a stream
		// sees ~13 000 vectors): ingest kicks the snapshotter once for
		// every vector processed past the threshold, and the snapshotter
		// takes one full snapshot per kick even when an earlier kick
		// already reset the count. Under 16-vector bursts a lock race
		// then decides whether a crossing costs 1 or 60 of these 2.6 MB
		// snapshots: the same inputs took 60 to 840 GCs, 1x to 4x the
		// allocation and 1x to 1.6x the CPU. The large snapshots are
		// still paid where they repeat: twice in every set-up (final
		// checkpoint, restore) and in the replay's direct persist calls.
		snapEvery: 1 << 20,
		warm:      144, reqRate: 200,
		verify: []int{4},
	},
	{
		name:     "tier-churn",
		why:      "open loop at 2400 vectors/s, 2 connections, 512 pcb streams on a hot/warm/cold revisit schedule: snapshot, page-out/in, evict and restore traffic instead of appends",
		openLoop: true,
		conns:    2, streams: 512, channels: 4,
		spec: "pcb+sw+musigma", window: 16, train: 100,
		warmAfter: time.Second, streamTTL: 3 * time.Second,
		shape: shapeChurn, perRequest: 24 + 2*churnVisit,
		warm: 170, reqRate: 37.5,
		verify: []int{0, 40, 200, 256 + 23, 256 + 70, 256 + 250},
	},
	{
		name:  "single-observe",
		why:   "closed loop, 1 connection, one vector per POST on 8 knn streams: the synchronous Observe path, one WAL write and one JSON object per request",
		conns: 1, streams: 8, channels: 8,
		spec: "knn+sw+musigma", window: 8, train: 64,
		shape: shapeSingle, perRequest: 1,
		warm: 2400, reqRate: 5800,
		verify: []int{0, 5},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamID names stream i of the workload; ids are file-name safe so
// persist does not escape them.
func (w *workload) streamID(i int) string {
	return fmt.Sprintf("%s-%04d", w.name[:2], i)
}

// requestsPerConn is the exact request quota of one connection for a
// measured phase of the given length.
func (w *workload) requestsPerConn(seconds float64) int {
	n := int(math.Round(w.reqRate * seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// interval is the open-loop send period of one connection.
func (w *workload) intervalNs() int64 { return int64(1e9 / w.reqRate) }

// entry is n consecutive vectors of one stream inside a request.
type entry struct {
	stream int
	n      int
}

// request appends the entries of request i of connection conn to dst.
// It is a pure function of (conn, i): the schedule does not depend on
// what the server answered.
func (w *workload) request(conn, i int, dst []entry) []entry {
	switch w.shape {
	case shapeTick:
		own := w.streams / w.conns
		groups := own / w.perRequest
		base := conn*own + (i%groups)*w.perRequest
		for k := 0; k < w.perRequest; k++ {
			dst = append(dst, entry{base + k, 1})
		}
	case shapeBurst:
		own := w.streams / w.conns
		dst = append(dst, entry{conn*own + i%own, w.perRequest})
	case shapeSingle:
		dst = append(dst, entry{i % w.streams, 1})
	case shapeChurn:
		own := w.streams / w.conns
		hot, warm, cold := churnSets(own)
		base := conn * own
		for k := 0; k < hot; k++ {
			dst = append(dst, entry{base + k, 1})
		}
		dst = append(dst,
			entry{base + hot + i%warm, churnVisit},
			entry{base + hot + warm + i%cold, churnVisit})
	}
	return dst
}

// streamQuota returns how many timed-phase vectors each stream receives
// when every connection sends reqs requests.
func (w *workload) streamQuota(reqs int) []int {
	quota := make([]int, w.streams)
	var buf []entry
	for c := 0; c < w.conns; c++ {
		for i := 0; i < reqs; i++ {
			buf = w.request(c, i, buf[:0])
			for _, e := range buf {
				quota[e.stream] += e.n
			}
		}
	}
	return quota
}

// serverArgs is the pinned streamadd command line of the workload.
func (w *workload) serverArgs(addr, stateDir string) []string {
	args := []string{
		"-addr", addr,
		"-spec", w.spec,
		"-channels", fmt.Sprint(w.channels),
		"-w", fmt.Sprint(w.window),
		"-m", fmt.Sprint(w.train),
		"-seed", fmt.Sprint(detectorSeed),
		"-state-dir", stateDir,
		// Count-triggered snapshots only: identical run to run, no
		// wall-clock-triggered work inside the timed phase.
		"-snapshot-interval", "0",
		"-snapshot-entries", fmt.Sprint(w.snapshotEvery()),
		"-alert-quantile", fmt.Sprint(alertQuantile),
	}
	if w.warmAfter > 0 {
		// The cap must not bind (creation hard-fails at the limit):
		// residency is driven by idle time alone.
		args = append(args, "-tier-warm-after", w.warmAfter.String(), "-stream-ttl", w.streamTTL.String(), "-max-streams", "2048")
	}
	return args
}

// snapshotEvery is streamadd's -snapshot-entries.
func (w *workload) snapshotEvery() int {
	if w.snapEvery > 0 {
		return w.snapEvery
	}
	return 256
}

// detectorSeed is streamadd's -seed; the in-process reference uses the
// same value. The workload seed only shapes the inputs.
const detectorSeed = 1

// alertQuantile is streamadd's -alert-quantile. At the daemon's default
// of 0.99 a run sees a few dozen false alarms and false_alarm_rate is
// Poisson noise; at 0.95 both quality metrics rest on thousands of alerts.
const alertQuantile = 0.95
