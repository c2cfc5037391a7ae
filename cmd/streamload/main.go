// Command streamload soaks a live streamadd with deterministic
// adversarial traffic and grades the run against SLOs. A scenario spec
// (internal/scenario grammar) describes the workload — base corpus,
// exact contamination, drift/season/dropout/burst injectors, and
// jitter/late/reorder timing faults — and a fleet of per-stream workers
// replays it over POST /v1/observe at a configured streams × rate ×
// duration envelope:
//
//	streamadd -addr :8417 -channels 4 -model arima &
//	streamload -addr http://127.0.0.1:8417 -streams 64 -rate 50 \
//	    -scenario 'drift(base(corpus=gauss,channels=4,p=0.02,pool=512),kind=abrupt,at=200,shift=4)' \
//	    -duration 30s -slo-p99 750ms -slo-shed-rate 0 -slo-5xx 0
//
// Because the generator owns the ground truth, the report carries
// online detection quality (recall, precision, false-alarm rate) next
// to the usual load-test latency percentiles and shed/drop/error rates.
// The run is bounded by an exact per-stream vector count (rate ×
// duration), so two runs with the same spec and seed send bit-identical
// vectors in the same per-stream order — against a fixed-seed server,
// the detection section of the report is reproducible.
//
// Exit codes: 0 — run complete, all SLOs met; 1 — run complete, at
// least one SLO violated (violations are listed on stderr and in the
// report); 2 — the run itself failed (bad flags, unreachable target,
// harness error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultScenario is the abrupt-drift workload the soak recipe reports
// recall on: 4-channel gaussian base, 2% contamination, mean shift of
// 4 sigma at step 200.
const defaultScenario = "drift(base(corpus=gauss,channels=4,p=0.02,pool=512),kind=abrupt,at=200,shift=4)"

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "streamadd base URL; a comma-separated list round-robins requests across cluster nodes and adds a per-target report breakdown")
		spec     = flag.String("scenario", defaultScenario, "scenario spec (internal/scenario grammar)")
		streams  = flag.Int("streams", 64, "concurrent streams")
		rate     = flag.Float64("rate", 50, "vectors per second per stream")
		batch    = flag.Int("batch", 16, "records per POST /v1/observe request")
		vectors  = flag.Int("vectors", 0, "vectors per stream (0: rate × duration)")
		duration = flag.Duration("duration", 30*time.Second, "soak length when -vectors is 0")
		warmup   = flag.Int("warmup", 64, "leading vectors per stream excluded from detection metrics")
		tol      = flag.Int("tolerance", 0, "point-adjust window in vectors: a true anomaly counts as detected if an alert fires within N following vectors, and an alert within N vectors after a true anomaly is not a false alarm (0: exact per-record matching)")
		seed     = flag.Int64("seed", 1, "base seed; per-stream generator and pacer seeds derive from it")
		out      = flag.String("out", "", "also write the report to this path (it always goes to stdout)")

		sloP99    = flag.Duration("slo-p99", 0, "max p99 request latency (0 disables)")
		sloShed   = flag.Float64("slo-shed-rate", -1, "max shed fraction of sent records (negative disables)")
		sloErr    = flag.Float64("slo-error-rate", -1, "max errored fraction of sent records (negative disables)")
		slo5xx    = flag.Int("slo-5xx", -1, "max HTTP 5xx responses (negative disables)")
		sloRecall = flag.Float64("slo-recall", -1, "min recall over evaluated records (negative disables)")
	)
	flag.Parse()

	rep, err := run(Config{
		Addr: *addr, Spec: *spec, Seed: *seed,
		Streams: *streams, Rate: *rate, Batch: *batch,
		Vectors: *vectors, Duration: *duration, Warmup: *warmup,
		Tolerance: *tol,
		SLO: SLO{
			MaxP99:       *sloP99,
			MaxShedRate:  *sloShed,
			MaxErrorRate: *sloErr,
			Max5xx:       *slo5xx,
			MinRecall:    *sloRecall,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamload:", err)
		os.Exit(2)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamload:", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "streamload:", err)
			os.Exit(2)
		}
	}
	os.Stdout.Write(blob)
	fmt.Fprintf(os.Stderr, "streamload: %d streams × %d vectors in %.1fs — p50 %.2fms p95 %.2fms p99 %.2fms, shed %.4f, errors %.4f, recall %.4f, false alarms %.4f\n",
		rep.Streams, rep.VectorsPerStream, rep.ElapsedSeconds,
		rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms,
		rep.Requests.ShedRate, rep.Requests.ErrorRate,
		rep.Detection.Recall, rep.Detection.FalseAlarmRate)
	if !rep.SLO.Pass {
		for _, v := range rep.SLO.Violations {
			fmt.Fprintln(os.Stderr, "streamload: SLO violation:", v)
		}
		os.Exit(1)
	}
}
