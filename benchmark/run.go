package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// pinnedProcs is GOMAXPROCS for the server and the generator: the box
// the baseline was taken on has two cores, and the pin keeps the
// numbers comparable on a bigger one.
const pinnedProcs = 2

// setupRepeats is how many times an end-to-end run performs the whole
// set-up; setup_s is their median and the timed phase runs against the
// last one's server.
const setupRepeats = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one benchmark run of one workload.
//
//streamad:finite-json — runOne passes every metric through finiteOrZero; details are counts, durations and checked ratios.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Rep       int               `json:"rep"` // which repetition of -repeat
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Detail carries what the contract's metric list has no room for:
	// quartiles, sample counts, elapsed time, the environment of the run.
	Detail map[string]float64 `json:"detail,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// setupTimes is one execution of the set-up procedure.
type setupTimes struct {
	total      time.Duration // first exec → every stream probed on the restarted server
	checkpoint time.Duration // SIGTERM → exit
	restore    time.Duration // second exec → /healthz
}

// setUp performs the deploy-and-restart procedure users pay on every
// rollout and returns the restarted server with every stream warm:
// exec on an empty state dir → /healthz → warm-up vectors → SIGTERM and
// final checkpoint → exec on the populated dir → restore done
// (/healthz) → one scored response from every stream.
func setUp(launch launcher, in *inputs, stateDir string) (*fleet, target, setupTimes, error) {
	var st setupTimes
	var srv target
	// Generators are built before the clock starts.
	f, err := newFleet(in, func(c int) *conn { return srv.dial(c) })
	if err != nil {
		return nil, nil, st, err
	}
	start := time.Now()
	if srv, err = launch(in.wl, stateDir); err != nil {
		return nil, nil, st, err
	}
	f.warmUp()
	if st.checkpoint, err = srv.stop(); err != nil {
		return nil, nil, st, err
	}
	restart := time.Now()
	if srv, err = launch(in.wl, stateDir); err != nil {
		return nil, nil, st, err
	}
	st.restore = time.Since(restart)
	f.probe()
	st.total = time.Since(start)
	if f.failed > 0 {
		srv.kill()
		return nil, nil, st, fmt.Errorf("set-up: %d failed records: %v", f.failed, f.firstFail)
	}
	return f, srv, st, nil
}

// fullSizeSeconds is the shortest measured phase the sizing rules of
// the traced replay are checked on; shorter runs are tests and smoke runs.
const fullSizeSeconds = 10

// blackBox is everything measured from outside the server process.
type blackBox struct {
	in      *inputs
	root    string    // scratch directory of the run (newRunDir)
	started time.Time // when the run began: the span clock's zero
	fleet   *fleet
	setups  []setupTimes
	seedDir string // copy of the state dir as the timed phase found it (traced runs)
	timed   timedResult
	before  procSample // the server as the timed phase starts
	after   procSample // …and as it ends
	dirSize int64
	final   time.Duration // SIGTERM → exit after the timed phase
	digests map[int]uint64
}

// runBlackBox boots the server, runs set-up (repeats times) and the
// timed phase, reads the process from outside and stops it. keepSeed
// copies the state dir the timed phase starts from, for the replay.
func runBlackBox(launch launcher, in *inputs, root string, repeats int, keepSeed bool) (*blackBox, error) {
	bb := &blackBox{in: in, root: root, started: time.Now()}
	var srv target
	var stateDir string
	for r := 0; r < repeats; r++ {
		if srv != nil {
			// Only the last set-up's server is measured further; the
			// others need no final checkpoint. Their state dirs stay
			// where they are: see newRunDir.
			srv.kill()
		}
		stateDir = filepath.Join(root, fmt.Sprintf("state%d", r))
		f, s, st, err := setUp(launch, in, stateDir)
		if err != nil {
			return nil, err
		}
		bb.fleet, srv = f, s
		bb.setups = append(bb.setups, st)
	}

	if keepSeed {
		// The server is idle: snapshots plus the one-record WAL tails the
		// probe left are a consistent image.
		bb.seedDir = filepath.Join(root, "seed")
		if err := copyDir(stateDir, bb.seedDir); err != nil {
			srv.kill()
			return nil, err
		}
	}
	bb.before = srv.sample()
	bb.timed = bb.fleet.runTimed(in.reqs)
	bb.after = srv.sample()
	bb.dirSize = dirBytes(stateDir)
	var err error
	if bb.final, err = srv.stop(); err != nil {
		return nil, err
	}
	// The reference runs after the server is gone, so it never competes
	// with a measured phase for the two cores.
	if bb.digests, err = referenceDigests(in); err != nil {
		return nil, err
	}
	return bb, nil
}

// runDirCap is how many bytes of finished runs' state may pile up under
// buildDir before the next run clears them out.
const runDirCap = 1500 << 20

// newRunDir returns a fresh scratch directory for one run. Nothing is
// deleted while a run measures, and a finished run's directory is left
// behind: only when the leftovers exceed runDirCap does the next run
// remove them all, before any of its clocks starts. Deleting is what
// disturbs the disk the server writes to. On the baseline box (ext4
// without a journal, mounted with discard) eight same-seed tier-churn
// runs that each removed their state dirs (~170 MB) read 85–158 µs of
// system CPU per vector and 3.6–5.1 ms request_p50_ms; the same runs
// with no deletion 57–71 µs and 3.3–3.5 ms; on tmpfs 35–42 µs. The
// user CPU was the same throughout. One large deletion disturbs the
// next few runs mildly; a deletion in every run disturbs all of them
// and by a different amount each time.
func newRunDir(workload string) (string, error) {
	runs := filepath.Join(buildDir, "run")
	if treeBytes(runs) > runDirCap {
		os.RemoveAll(runs)
	}
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(runs, workload+"-")
}

// treeBytes sums the regular files under dir.
func treeBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// verdict fills the correctness part of a result: exact quota, no
// failed record, digest equality on the verified streams.
func (bb *blackBox) verdict(res *runResult) {
	f := bb.fleet
	res.Attempted = bb.in.totalVectors()
	res.Failed = f.failed
	res.Notes = append(res.Notes, f.firstFail...)
	res.Correct = f.failed == 0
	if got := f.timedRecords(); got+f.failed < res.Attempted || len(bb.timed.done) != bb.in.reqs*bb.in.wl.conns {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("quota: %d of %d records answered in %d requests", got, res.Attempted, len(bb.timed.done)))
	}
	for i, q := range bb.in.quota {
		if st := f.streams[i]; f.failed == 0 && (len(st.truth) != q || st.nextSeq != uint64(bb.in.wl.prefix()+q)) {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d timed records, next seq %d; want %d and %d",
				st.id, len(st.truth), st.nextSeq, q, bb.in.wl.prefix()+q))
			break
		}
	}
	for _, i := range bb.in.wl.verify {
		if got, want := f.streams[i].digest, bb.digests[i]; got != want {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("%s: digest %016x over the wire, %016x in-process", f.streams[i].id, got, want))
		}
	}
}

// latencies returns the timed phase's request latencies in ms, ascending.
func (t *timedResult) latenciesMs() []float64 {
	out := make([]float64, len(t.done))
	for i, c := range t.done {
		out[i] = float64(c.latencyNs) / 1e6
	}
	sort.Float64s(out)
	return out
}

// endToEnd renders the seven user-visible metrics.
func (bb *blackBox) endToEnd(res *runResult) {
	records := float64(bb.in.totalVectors())
	rates := sliceRates(bb.timed.done, 5)
	q1, q2, q3 := quartiles(rates)
	lat := bb.timed.latenciesMs()
	var setups []float64
	for _, s := range bb.setups {
		setups = append(setups, s.total.Seconds())
	}
	det := bb.fleet.quality()
	res.Metrics = map[string]metric{
		"vectors_per_s":     {q2, "1/s"},
		"cpu_us_per_vector": {(bb.after.cpuSeconds - bb.before.cpuSeconds) * 1e6 / records, "us"},
		"request_p50_ms":    {quantile(lat, 0.5), "ms"},
		"peak_rss_mb":       {bb.after.hwmKB / 1024, "MB"},
		"setup_s":           {median(setups), "s"},
		"alert_recall":      {det.recall(), "ratio"},
		"false_alarm_rate":  {det.falseAlarmRate(), "ratio"},
	}
	res.Detail = map[string]float64{
		"vectors_per_s_q1":  q1,
		"vectors_per_s_q3":  q3,
		"request_samples":   float64(len(lat)),
		"elapsed_s":         bb.timed.elapsed.Seconds(),
		"records":           records,
		"true_anomalies":    float64(det.tp + det.fn),
		"false_alarms":      float64(det.fp),
		"setup_min_s":       sortedCopy(setups)[0],
		"setup_max_s":       sortedCopy(setups)[len(setups)-1],
		"gomaxprocs":        pinnedProcs,
		"connections":       float64(bb.in.wl.conns),
		"client_cpu_us_per": float64(bb.timed.clientCPU.Microseconds()) / records,
	}
}
