// Command benchmark is the repo's one socket-to-score benchmark: it
// boots a real streamadd with persistence on, drives it over loopback
// HTTP with seed-determined inputs, verifies every response, and prints
// every metric by name and unit. See README.md in this directory.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -trace 1             …plus the traced replay's per-layer metrics
//	go run ./benchmark -workload ingest-light -seed 7 -seconds 12 -trace 0
//	go run ./benchmark -check A.json B.json compare two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "length of the measured phase the fixed work is sized for")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the black-box run and the traced replay")
		spans   = flag.String("spans", "", "with -trace 1: write the replay's spans to this file (default .bench_build/spans-<workload>.json)")
		repeat  = flag.Int("repeat", 1, "run everything this many times (repeatability evidence)")
		out     = flag.String("out", "", "also write every run's result to this JSON file")
		check   = flag.Bool("check", false, "compare two result files: -check A.json B.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)
	if *check {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-check wants two result files"))
		}
		os.Exit(runCheck("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	selected := workloads
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{wl}
	}
	bin, err := buildServer()
	if err != nil {
		fatal(err)
	}
	launch := func(wl *workload, stateDir string) (target, error) { return startServer(bin, wl, stateDir) }

	file := resultFile{Env: captureEnv()}
	ok := true
	for r := 0; r < *repeat; r++ {
		for _, wl := range selected {
			res, err := runOne(launch, wl, *seed, *seconds, *trace, *spans)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", wl.name, err))
			}
			res.Rep = r
			file.Runs = append(file.Runs, *res)
			ok = ok && res.Correct
			// A full-size traced run is also the sizing gate of its
			// workload: mis-sized fails the run, not `correct`.
			if m, traced := res.Metrics["trace.sizing_ok"]; traced && m.Value == 0 {
				ok = false
			}
			printRun(res)
		}
	}
	if *repeat > 1 {
		file.Spread = spreads(file.Runs)
		printSpreads(file.Spread)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if len(file.Runs) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		r := file.Runs[0]
		line, err := json.Marshal(contractLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// contractLine is the one JSON object the driver reads.
//
//streamad:finite-json — runOne passes every metric through finiteOrZero.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload once: the black-box run and, with trace on,
// the in-process traced replay of a prefix of the same inputs.
func runOne(launch launcher, wl *workload, seed int64, seconds float64, trace int, spanPath string) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: seed, Seconds: seconds, Trace: trace}
	repeats := setupRepeats
	if trace == 1 {
		repeats = 1 // set-up is an end-to-end metric; the traced run spends the time on the replay
	}
	root, err := newRunDir(wl.name)
	if err != nil {
		return nil, err
	}
	bb, err := runBlackBox(launch, newInputs(wl, seed, seconds), root, repeats, trace == 1)
	if err != nil {
		return nil, err
	}
	bb.verdict(res)
	if trace == 0 {
		bb.endToEnd(res)
	} else {
		if spanPath == "" {
			spanPath = fmt.Sprintf("%s/spans-%s.json", buildDir, wl.name)
		}
		if err := bb.perLayer(res, spanPath); err != nil {
			return nil, err
		}
	}
	for name, m := range res.Metrics {
		res.Metrics[name] = metric{finiteOrZero(m.Value), m.Unit}
	}
	return res, nil
}

// spreads returns (max − min)/median of every metric over the
// repetitions of each workload.
func spreads(runs []runResult) map[string]float64 {
	samples := map[string][]float64{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			key := r.Workload + "/" + name
			samples[key] = append(samples[key], m.Value)
		}
	}
	out := make(map[string]float64, len(samples))
	for key, v := range samples {
		out[key] = relSpread(v)
	}
	return out
}

func printSpreads(sp map[string]float64) {
	keys := make([]string, 0, len(sp))
	for k := range sp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("== (max − min)/median over the repetitions")
	for _, k := range keys {
		fmt.Printf("  %-50s %.4f\n", k, sp[k])
	}
}

// printRun prints one run for people: every metric by name with its unit.
func printRun(r *runResult) {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%d  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if len(r.Detail) > 0 {
		var parts []string
		for n, v := range r.Detail {
			parts = append(parts, fmt.Sprintf("%s=%.6g", n, v))
		}
		sort.Strings(parts)
		fmt.Printf("  (%s)\n", strings.Join(parts, " "))
	}
	for _, n := range r.Notes {
		fmt.Printf("  ! %s\n", n)
	}
}
