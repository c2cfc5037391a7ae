package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"streamad/internal/scenario"
	"streamad/internal/server"
)

// Config is one soak run: a scenario spec fanned out over a fleet of
// streams against a live streamadd.
type Config struct {
	// Addr is the target base URL, e.g. http://127.0.0.1:8417. A
	// comma-separated list soaks a cluster: each worker round-robins its
	// requests across all targets, and the report carries a per-target
	// breakdown next to the aggregate.
	Addr string
	// Spec is the scenario spec (internal/scenario grammar). Timing-fault
	// layers (jitter/late/reorder) shape the send schedule.
	Spec string
	// Seed is the base seed: stream i generates from
	// DeriveSeed(Seed, "stream/i") and paces from DeriveSeed(Seed, "pace/i").
	Seed int64
	// Streams is the fleet size; stream ids are soak-0..soak-(n-1).
	Streams int
	// Rate is vectors per second per stream.
	Rate float64
	// Batch is records per POST /v1/observe request.
	Batch int
	// Vectors is the exact per-stream vector count. Zero derives it from
	// Rate·Duration — the count, not the wall clock, bounds the run, so
	// detection metrics stay deterministic for a given spec and seed.
	Vectors  int
	Duration time.Duration
	// Warmup excludes each stream's leading vectors from detection
	// metrics (the detector is still filling its window).
	Warmup int
	// Tolerance is the point-adjust window, in vectors: a true anomaly
	// at index i counts as detected if any alert fires in [i, i+N], and
	// an alert at j is a false alarm only if no true anomaly sits in
	// [j-N, j]. Zero keeps exact per-record matching.
	Tolerance int
	// SLO are the pass/fail gates evaluated over the final report.
	SLO SLO
	// Client overrides the pooled default HTTP client (tests).
	Client *http.Client
}

// SLO are the soak gates. A negative threshold disables its check;
// MaxP99 is disabled at zero.
type SLO struct {
	MaxP99       time.Duration // max p99 request latency
	MaxShedRate  float64       // max shed fraction of sent records
	MaxErrorRate float64       // max errored fraction of sent records
	Max5xx       int           // max HTTP 5xx responses
	MinRecall    float64       // min recall over evaluated records
}

// Report is the JSON document a run prints.
//
// Every float is routed through finite() or ratio() when the report is assembled.
type Report struct {
	Spec             string       `json:"spec"`
	Seed             int64        `json:"seed"`
	Streams          int          `json:"streams"`
	RatePerStream    float64      `json:"rate_per_stream_hz"`
	BatchRecords     int          `json:"batch_records"`
	VectorsPerStream int          `json:"vectors_per_stream"`
	WarmupVectors    int          `json:"warmup_vectors"`
	ToleranceVectors int          `json:"tolerance_vectors"`
	ElapsedSeconds   float64      `json:"elapsed_seconds"`
	Requests         RequestStats `json:"requests"`
	Latency          LatencyStats `json:"latency"`
	// Targets is the per-target breakdown of a multi-target (cluster)
	// soak, in -addr order; omitted for single-target runs.
	Targets   []TargetReport `json:"targets,omitempty"`
	Detection DetectionStats `json:"detection"`
	SLO       SLOReport      `json:"slo"`
}

// TargetReport is one target's share of a multi-target soak: its request
// outcomes and its own latency percentiles, so a cluster node that is
// slow or erroring stands out instead of hiding in the aggregate.
//
// latencyStats routes every float through finite().
type TargetReport struct {
	URL             string       `json:"url"`
	HTTPRequests    int          `json:"http_requests"`
	TransportErrors int          `json:"transport_errors"`
	HTTP5xx         int          `json:"http_5xx"`
	RecordErrors    int          `json:"record_errors"`
	Latency         LatencyStats `json:"latency"`
}

// RequestStats aggregates wire-level outcomes. Every sent record lands
// in exactly one of scored / not-ready / shed / dropped / errored.
type RequestStats struct {
	HTTPRequests    int     `json:"http_requests"`
	TransportErrors int     `json:"transport_errors"`
	HTTP5xx         int     `json:"http_5xx"`
	RecordsSent     int     `json:"records_sent"`
	RecordsScored   int     `json:"records_scored"`
	RecordsNotReady int     `json:"records_not_ready"`
	RecordsShed     int     `json:"records_shed"`
	RecordsDropped  int     `json:"records_dropped"`
	RecordErrors    int     `json:"record_errors"`
	ShedRate        float64 `json:"shed_rate"`
	ErrorRate       float64 `json:"error_rate"`
}

// LatencyStats summarizes full request round trips (send to last
// response byte), in milliseconds.
type LatencyStats struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// DetectionStats is the online confusion matrix over scored,
// post-warmup records: the generator knows each record's ground-truth
// label, the server's alert bit is the prediction. With a positive
// tolerance the matrix is point-adjusted (see Config.Tolerance);
// Evaluated, TrueAnomalies and Alerts are raw counts either way.
type DetectionStats struct {
	Evaluated      int     `json:"evaluated_records"`
	TrueAnomalies  int     `json:"true_anomalies"`
	Alerts         int     `json:"alerts"`
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	FalseNegatives int     `json:"false_negatives"`
	TrueNegatives  int     `json:"true_negatives"`
	Recall         float64 `json:"recall"`
	Precision      float64 `json:"precision"`
	FalseAlarmRate float64 `json:"false_alarm_rate"`
}

// SLOReport records the gate evaluation; a non-empty Violations list
// makes the process exit non-zero.
type SLOReport struct {
	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

// soakRecord is one NDJSON request line of POST /v1/observe.
//
// nextBatch zeroes non-finite vector entries before encoding.
type soakRecord struct {
	Stream string    `json:"stream"`
	Vector []float64 `json:"vector"`
}

// run executes one soak and aggregates the report. It returns an error
// only for harness-level failures (bad config, unreachable spec,
// ground-truth accounting mismatch); server misbehavior is data, not an
// error — it lands in the report and the SLO verdict.
//
//streamad:lifecycle — every worker goroutine is joined by wg.Wait before run returns.
func run(cfg Config) (*Report, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("streamload: target address is required")
	}
	if cfg.Streams <= 0 || cfg.Rate <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("streamload: streams (%d), rate (%g) and batch (%d) must be positive",
			cfg.Streams, cfg.Rate, cfg.Batch)
	}
	sc, err := scenario.Parse(cfg.Spec)
	if err != nil {
		return nil, err
	}
	vectors := cfg.Vectors
	if vectors == 0 {
		if cfg.Duration <= 0 {
			return nil, fmt.Errorf("streamload: need a vector count or a positive duration")
		}
		vectors = int(cfg.Rate * cfg.Duration.Seconds())
	}
	if vectors <= 0 {
		return nil, fmt.Errorf("streamload: %d vectors per stream", vectors)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= vectors {
		return nil, fmt.Errorf("streamload: warmup %d must be in [0, %d)", cfg.Warmup, vectors)
	}
	if cfg.Tolerance < 0 {
		return nil, fmt.Errorf("streamload: tolerance %d must be non-negative", cfg.Tolerance)
	}
	var targets []string
	for _, t := range strings.Split(cfg.Addr, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("streamload: target address is required")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Streams + 8,
				MaxIdleConnsPerHost: cfg.Streams + 8,
			},
		}
	}
	interval := time.Duration(float64(cfg.Batch) / cfg.Rate * float64(time.Second))

	workers := make([]*worker, cfg.Streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		gen, err := sc.NewStream(scenario.DeriveSeed(cfg.Seed, fmt.Sprintf("stream/%d", i)))
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{
			stream:  fmt.Sprintf("soak-%d", i),
			gen:     gen,
			pacer:   scenario.NewPacer(sc.Timing, interval, scenario.DeriveSeed(cfg.Seed, fmt.Sprintf("pace/%d", i))),
			client:  client,
			targets: targets,
			rr:      i % len(targets), // stagger so the fleet spreads from the first request
			tstats:  make([]targetStats, len(targets)),
			batch:   cfg.Batch,
			total:   vectors,
			warmup:  cfg.Warmup,
			tol:     cfg.Tolerance,
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.drive()
		}(workers[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Spec: cfg.Spec, Seed: cfg.Seed, Streams: cfg.Streams,
		RatePerStream: finite(cfg.Rate), BatchRecords: cfg.Batch,
		VectorsPerStream: vectors, WarmupVectors: cfg.Warmup,
		ToleranceVectors: cfg.Tolerance,
		ElapsedSeconds:   finite(elapsed.Seconds()),
	}
	var lats []time.Duration
	perTarget := make([]targetStats, len(targets))
	for _, w := range workers {
		w.finalize()
		// The generator's exact-contamination contract doubles as a
		// harness self-check: the labels the worker paired with results
		// must match ExactAnomalyCount to the record.
		if want := w.gen.ExactAnomalyCount(vectors); w.anomalies != want {
			return nil, fmt.Errorf("streamload: stream %s drew %d anomalies, generator promises exactly %d — harness bug",
				w.stream, w.anomalies, want)
		}
		addRequests(&rep.Requests, w.rs)
		addDetection(&rep.Detection, w.det)
		lats = append(lats, w.lat...)
		for ti := range w.tstats {
			perTarget[ti].add(&w.tstats[ti])
		}
	}
	if len(targets) > 1 {
		for ti, t := range targets {
			ts := &perTarget[ti]
			rep.Targets = append(rep.Targets, TargetReport{
				URL:             t,
				HTTPRequests:    ts.requests,
				TransportErrors: ts.transportErrors,
				HTTP5xx:         ts.http5xx,
				RecordErrors:    ts.recordErrors,
				Latency:         latencyStats(ts.lat),
			})
		}
	}
	rep.Requests.ShedRate = ratio(rep.Requests.RecordsShed, rep.Requests.RecordsSent)
	rep.Requests.ErrorRate = ratio(rep.Requests.RecordErrors, rep.Requests.RecordsSent)
	d := &rep.Detection
	d.Recall = ratio(d.TruePositives, d.TruePositives+d.FalseNegatives)
	d.Precision = ratio(d.TruePositives, d.TruePositives+d.FalsePositives)
	d.FalseAlarmRate = ratio(d.FalsePositives, d.FalsePositives+d.TrueNegatives)
	rep.Latency = latencyStats(lats)
	rep.SLO = evaluateSLO(cfg.SLO, rep)
	return rep, nil
}

// worker drives one stream for the whole soak: draws scenario batches,
// paces them through the Pacer (applying jitter/late/reorder faults),
// posts them, and pairs every response record with its ground-truth
// label by request order.
type worker struct {
	stream  string
	gen     scenario.Stream
	pacer   *scenario.Pacer
	client  *http.Client
	targets []string
	rr      int           // round-robin cursor over targets
	tstats  []targetStats // per-target outcomes, parallel to targets
	batch   int
	total   int
	warmup  int
	tol     int

	sent      int // vectors drawn so far
	anomalies int // ground-truth anomalies drawn so far

	lat []time.Duration
	rs  RequestStats
	det DetectionStats
	evs []tolEvent // deferred records awaiting point-adjust matching (tol > 0)
}

// tolEvent is one evaluated record held back for tolerant matching: the
// confusion cell depends on neighbours that may not have been scored
// yet, so classification waits until the stream's quota is exhausted.
type tolEvent struct {
	idx   int
	truth bool
	alert bool
}

func (w *worker) drive() {
	body, labels, base := w.nextBatch()
	for body != nil {
		plan := w.pacer.Plan()
		if plan.Gap > 0 {
			time.Sleep(plan.Gap)
		}
		if plan.SwapWithNext {
			// The reorder fault: the successor batch jumps the queue, so
			// the server admits (and sequence-numbers) its records first.
			if nb, nl, nbase := w.nextBatch(); nb != nil {
				w.send(nb, nl, nbase)
			}
		}
		w.send(body, labels, base)
		body, labels, base = w.nextBatch()
	}
}

// nextBatch draws up to batch vectors from the scenario, zeroing
// non-finite values (JSON cannot carry NaN; the dropout nan mode is an
// in-process fault), and returns the encoded NDJSON body, the
// per-record ground-truth labels, and the stream index of the first
// record. A nil body means the stream's quota is exhausted.
func (w *worker) nextBatch() ([]byte, []bool, int) {
	if w.sent >= w.total {
		return nil, nil, 0
	}
	n := w.batch
	if rem := w.total - w.sent; n > rem {
		n = rem
	}
	first := w.sent
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	labels := make([]bool, n)
	vec := make([]float64, w.gen.Channels())
	for i := 0; i < n; i++ {
		v, anom := w.gen.Next()
		for c, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			vec[c] = x
		}
		labels[i] = anom
		if anom {
			w.anomalies++
		}
		enc.Encode(soakRecord{Stream: w.stream, Vector: vec})
	}
	w.sent += n
	return buf.Bytes(), labels, first
}

// send posts one batch to the next round-robin target and consumes the
// NDJSON response, pairing the i-th result with the i-th record's label.
// The latency sample covers the full round trip: send to last response
// byte. Outcomes are recorded twice — into the aggregate and into the
// chosen target's row.
func (w *worker) send(body []byte, labels []bool, first int) {
	ti := w.rr % len(w.targets)
	w.rr++
	ts := &w.tstats[ti]
	errsBefore := w.rs.RecordErrors
	defer func() { ts.recordErrors += w.rs.RecordErrors - errsBefore }()
	w.rs.HTTPRequests++
	ts.requests++
	w.rs.RecordsSent += len(labels)
	t0 := time.Now()
	resp, err := w.client.Post(w.targets[ti]+"/v1/observe", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		w.rs.TransportErrors++
		ts.transportErrors++
		w.rs.RecordErrors += len(labels)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			w.rs.HTTP5xx++
			ts.http5xx++
		}
		w.rs.RecordErrors += len(labels)
		io.Copy(io.Discard, resp.Body)
		w.sample(ts, time.Since(t0))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	i := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var res server.BatchResult
		if err := json.Unmarshal(line, &res); err != nil || i >= len(labels) {
			w.rs.RecordErrors++
			i++
			continue
		}
		w.record(res, labels[i], first+i)
		i++
	}
	w.sample(ts, time.Since(t0))
	if err := sc.Err(); err != nil {
		w.rs.TransportErrors++
		ts.transportErrors++
	}
	for ; i < len(labels); i++ {
		w.rs.RecordErrors++ // the response ended short of one result per record
	}
}

// sample records one round-trip latency in the aggregate and the
// per-target series.
func (w *worker) sample(ts *targetStats, d time.Duration) {
	w.lat = append(w.lat, d)
	ts.lat = append(ts.lat, d)
}

// targetStats is one worker's outcomes against one target.
type targetStats struct {
	requests        int
	transportErrors int
	http5xx         int
	recordErrors    int
	lat             []time.Duration
}

func (t *targetStats) add(src *targetStats) {
	t.requests += src.requests
	t.transportErrors += src.transportErrors
	t.http5xx += src.http5xx
	t.recordErrors += src.recordErrors
	t.lat = append(t.lat, src.lat...)
}

// record classifies one response record and, for scored post-warmup
// records, updates the confusion matrix against the ground truth.
func (w *worker) record(res server.BatchResult, truth bool, idx int) {
	switch {
	case res.Error != "":
		w.rs.RecordErrors++
	case res.Shed:
		w.rs.RecordsShed++
	case res.Dropped:
		w.rs.RecordsDropped++
	case !res.Ready:
		w.rs.RecordsNotReady++
	default:
		w.rs.RecordsScored++
		if idx < w.warmup {
			return
		}
		w.det.Evaluated++
		if truth {
			w.det.TrueAnomalies++
		}
		if res.Alert {
			w.det.Alerts++
		}
		if w.tol > 0 {
			w.evs = append(w.evs, tolEvent{idx: idx, truth: truth, alert: res.Alert})
			return
		}
		switch {
		case res.Alert && truth:
			w.det.TruePositives++
		case res.Alert:
			w.det.FalsePositives++
		case truth:
			w.det.FalseNegatives++
		default:
			w.det.TrueNegatives++
		}
	}
}

// finalize classifies the deferred records with point-adjust matching:
// a truth at i is a true positive iff an alert landed in [i, i+tol]; an
// alert on a normal record at j is forgiven (a true negative) iff a
// truth sits in [j-tol, j]. With tol == 0 nothing was deferred and this
// is a no-op — the inline path already produced the exact-match matrix,
// and the two agree at tol == 0 because each window collapses to the
// record itself. Events are re-sorted because the reorder timing fault
// can deliver batches out of stream order.
func (w *worker) finalize() {
	if len(w.evs) == 0 {
		return
	}
	sort.Slice(w.evs, func(i, j int) bool { return w.evs[i].idx < w.evs[j].idx })
	var truths, alerts []int
	for _, e := range w.evs {
		if e.truth {
			truths = append(truths, e.idx)
		}
		if e.alert {
			alerts = append(alerts, e.idx)
		}
	}
	for _, e := range w.evs {
		if e.truth {
			k := sort.SearchInts(alerts, e.idx)
			if k < len(alerts) && alerts[k] <= e.idx+w.tol {
				w.det.TruePositives++
			} else {
				w.det.FalseNegatives++
			}
			continue
		}
		if !e.alert {
			w.det.TrueNegatives++
			continue
		}
		k := sort.SearchInts(truths, e.idx-w.tol)
		if k < len(truths) && truths[k] <= e.idx {
			w.det.TrueNegatives++
		} else {
			w.det.FalsePositives++
		}
	}
	w.evs = nil
}

func addRequests(dst *RequestStats, src RequestStats) {
	dst.HTTPRequests += src.HTTPRequests
	dst.TransportErrors += src.TransportErrors
	dst.HTTP5xx += src.HTTP5xx
	dst.RecordsSent += src.RecordsSent
	dst.RecordsScored += src.RecordsScored
	dst.RecordsNotReady += src.RecordsNotReady
	dst.RecordsShed += src.RecordsShed
	dst.RecordsDropped += src.RecordsDropped
	dst.RecordErrors += src.RecordErrors
}

func addDetection(dst *DetectionStats, src DetectionStats) {
	dst.Evaluated += src.Evaluated
	dst.TrueAnomalies += src.TrueAnomalies
	dst.Alerts += src.Alerts
	dst.TruePositives += src.TruePositives
	dst.FalsePositives += src.FalsePositives
	dst.FalseNegatives += src.FalseNegatives
	dst.TrueNegatives += src.TrueNegatives
}

// latencyStats sorts the samples and extracts the report percentiles.
func latencyStats(lats []time.Duration) LatencyStats {
	ls := LatencyStats{Requests: len(lats)}
	if len(lats) == 0 {
		return ls
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	ms := func(d time.Duration) float64 { return finite(float64(d) / 1e6) }
	ls.P50Ms = ms(pct(lats, 0.50))
	ls.P95Ms = ms(pct(lats, 0.95))
	ls.P99Ms = ms(pct(lats, 0.99))
	ls.MaxMs = ms(lats[len(lats)-1])
	ls.MeanMs = ms(sum / time.Duration(len(lats)))
	return ls
}

// pct is the nearest-rank percentile of a sorted sample.
func pct(sorted []time.Duration, p float64) time.Duration {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// evaluateSLO checks the configured gates against the finished report.
func evaluateSLO(slo SLO, rep *Report) SLOReport {
	var v []string
	if slo.MaxP99 > 0 {
		if maxMs := float64(slo.MaxP99) / 1e6; rep.Latency.P99Ms > maxMs {
			v = append(v, fmt.Sprintf("p99 latency %.2fms exceeds SLO %v", rep.Latency.P99Ms, slo.MaxP99))
		}
	}
	if slo.MaxShedRate >= 0 && rep.Requests.ShedRate > slo.MaxShedRate {
		v = append(v, fmt.Sprintf("shed rate %.4f exceeds SLO %.4f", rep.Requests.ShedRate, slo.MaxShedRate))
	}
	if slo.MaxErrorRate >= 0 && rep.Requests.ErrorRate > slo.MaxErrorRate {
		v = append(v, fmt.Sprintf("error rate %.4f exceeds SLO %.4f", rep.Requests.ErrorRate, slo.MaxErrorRate))
	}
	if slo.Max5xx >= 0 && rep.Requests.HTTP5xx > slo.Max5xx {
		v = append(v, fmt.Sprintf("%d HTTP 5xx responses exceed SLO %d", rep.Requests.HTTP5xx, slo.Max5xx))
	}
	if slo.MinRecall >= 0 && rep.Detection.Recall < slo.MinRecall {
		v = append(v, fmt.Sprintf("recall %.4f below SLO %.4f", rep.Detection.Recall, slo.MinRecall))
	}
	return SLOReport{Violations: v, Pass: len(v) == 0}
}

// ratio is num/den with an explicit zero-denominator guard, so the
// report never carries NaN into JSON.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return finite(float64(num) / float64(den))
}

// finite zeroes non-finite values before they reach the JSON report.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
