package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// envInfo is where a result file was measured.
type envInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	StateDirFS string `json:"state_dir_fs"`
}

func captureEnv() envInfo {
	env := envInfo{NProc: runtime.NumCPU(), GoMaxProcs: pinnedProcs, Go: runtime.Version()}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					env.CPU = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	if err := os.MkdirAll(buildDir, 0o755); err == nil {
		env.StateDirFS = fsType(buildDir)
	}
	return env
}

// resultFile is what -out writes and -check reads: every run of one
// invocation. Spread is filled for repeated runs.
//
//streamad:finite-json — runs carry guarded metrics (see runResult); spreads are relSpread's checked ratios.
type resultFile struct {
	Env    envInfo            `json:"env"`
	Runs   []runResult        `json:"runs"`
	Spread map[string]float64 `json:"spread,omitempty"` // "workload/metric" → (max−min)/median
}

// bounds is the part of BENCHMARK.json -check needs.
type bounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics are exact functions of (workload, seed, seconds): they
// repeat bit for bit, so between two sides that ran the same inputs any
// difference is a change of the code's numerics. -check holds them to
// exactBound, an absolute difference, on such sides. BENCHMARK.json's
// relative bound for them is sized for the spread across seeds, which
// is all the driver's ten-seed comparison can resolve.
var exactMetrics = map[string]bool{"alert_recall": true, "false_alarm_rate": true}

const exactBound = 0.01

// inputsKey names the generated inputs of a run of one workload.
type inputsKey struct {
	seed    int64
	seconds float64
}

// side is one result file reduced to samples per workload × metric.
type side struct {
	samples   map[string][]float64             // "workload/metric"
	exact     map[string]map[inputsKey]float64 // exactMetrics only, per inputs
	attempted map[string]int
	failed    map[string]int
}

// loadSide reads a result file; "file.json#2" selects repetition 2 of a
// -repeat run, so the repetitions of one file can be compared pairwise.
func loadSide(path string) (*side, error) {
	rep := -1
	if i := strings.LastIndexByte(path, '#'); i >= 0 {
		n, err := strconv.Atoi(path[i+1:])
		if err != nil {
			return nil, fmt.Errorf("%s: bad repetition selector", path)
		}
		path, rep = path[:i], n
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &side{samples: map[string][]float64{}, exact: map[string]map[inputsKey]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range rf.Runs {
		if r.Trace != 0 || (rep >= 0 && r.Rep != rep) {
			continue
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
		for name, m := range r.Metrics {
			key := r.Workload + "/" + name
			s.samples[key] = append(s.samples[key], m.Value)
			if exactMetrics[name] {
				if s.exact[key] == nil {
					s.exact[key] = map[inputsKey]float64{}
				}
				s.exact[key][inputsKey{r.Seed, r.Seconds}] = m.Value
			}
		}
	}
	return s, nil
}

// verdict compares candidate b against baseline a for one metric.
//
//	ok         b's median is within bound of a's (or better)
//	regressed  b's median is worse than a's by more than bound
//	unresolved the run-to-run spread of either side exceeds the bound,
//	           so the comparison cannot tell
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(a), median(b)
	if relSpread(a) > bound || relSpread(b) > bound {
		return "unresolved"
	}
	worse := mb - ma
	if better == "higher" {
		worse = ma - mb
	}
	if ma != 0 {
		worse /= math.Abs(ma)
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}

// exactVerdict compares an exact metric run on the same inputs on both
// sides: regressed when any input's value is worse by more than
// exactBound. It returns "" when the sides ran different inputs and the
// relative rule has to do.
func exactVerdict(a, b map[inputsKey]float64, better string) string {
	if len(a) == 0 || len(a) != len(b) {
		return ""
	}
	v := "ok"
	for k, va := range a {
		vb, same := b[k]
		if !same {
			return ""
		}
		worse := vb - va
		if better == "higher" {
			worse = va - vb
		}
		if worse > exactBound {
			v = "regressed"
		}
	}
	return v
}

// runCheck prints one row per workload × end-to-end metric and returns
// the exit code: 1 on a regression or a higher failed share, else 0.
func runCheck(contract, pathA, pathB string, w io.Writer) int {
	raw, err := os.ReadFile(contract)
	if err != nil {
		fmt.Fprintln(w, "check:", err)
		return 2
	}
	var bs bounds
	if err := json.Unmarshal(raw, &bs); err != nil {
		fmt.Fprintf(w, "check: %s: %v\n", contract, err)
		return 2
	}
	a, err := loadSide(pathA)
	if err != nil {
		fmt.Fprintln(w, "check:", err)
		return 2
	}
	b, err := loadSide(pathB)
	if err != nil {
		fmt.Fprintln(w, "check:", err)
		return 2
	}
	code := 0
	var names []string
	for wl := range a.attempted {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "A spread", "B spread", "bound", "verdict")
	for _, wl := range names {
		for _, m := range bs.EndToEnd {
			key := wl + "/" + m.Name
			sa, sb := a.samples[key], b.samples[key]
			if len(sa) == 0 || len(sb) == 0 {
				fmt.Fprintf(w, "%-15s %-18s missing on one side\n", wl, m.Name)
				code = 1
				continue
			}
			v, bound := exactVerdict(a.exact[key], b.exact[key], m.Better), exactBound
			if v == "" {
				v, bound = verdict(sa, sb, m.Better, m.Bound), m.Bound
			}
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %8.4f %8.4f %6.2f  %s\n",
				wl, m.Name, median(sa), median(sb), relSpread(sa), relSpread(sb), bound, v)
		}
		if failedShare(b, wl) > failedShare(a, wl) {
			fmt.Fprintf(w, "%-15s failed share rose: %d/%d → %d/%d\n", wl, a.failed[wl], a.attempted[wl], b.failed[wl], b.attempted[wl])
			code = 1
		}
	}
	return code
}

func failedShare(s *side, wl string) float64 {
	if s.attempted[wl] == 0 {
		return 0
	}
	return float64(s.failed[wl]) / float64(s.attempted[wl])
}
