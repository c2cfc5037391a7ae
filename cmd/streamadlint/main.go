// Command streamadlint runs the repo's custom analyzer suite
// (internal/lint) over the whole module:
//
//	streamadlint [-analyzers hotalloc,detrand] [-json] [-timing] [dir]
//
// dir defaults to the current directory; streamadlint ascends to the
// enclosing go.mod and checks every package in the module in dependency
// order, threading cross-package facts. Exit status is 2 when any
// unsuppressed diagnostic is reported. -json switches the report to a
// machine-readable document on stdout that includes suppressed
// diagnostics with their justifications (the suppression-audit view);
// -timing appends the per-analyzer cost breakdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"streamad/internal/lint"
)

// version is stamped into the -json report; bump it when analyzer
// behaviour changes. lint-2: fact layer, statesync, directive,
// transitive hotalloc. lint-3: metriclint retired (the /metrics registry
// in internal/server makes its findings unwritable).
const version = "streamad-lint-3"

func main() {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	analyzersFlag := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	listFlag := fs.Bool("list", false, "list the analyzer catalogue and exit")
	jsonFlag := fs.Bool("json", false, "report as JSON on stdout, suppressed diagnostics included")
	timingFlag := fs.Bool("timing", false, "report per-analyzer timing")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-analyzers names] [-list] [-json] [-timing] [dir]\n", progname)
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(*analyzersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}

	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	os.Exit(run(dir, selected, *jsonFlag, *timingFlag))
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonDiagnostic is one diagnostic in -json output. The schema is
// pinned by TestJSONSchema; extend it, don't rearrange it.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// jsonReport is the -json document.
//
//streamad:finite-json — TimingMs values derive from time.Duration microsecond counts, finite by construction.
type jsonReport struct {
	Version     string           `json:"version"`
	Packages    int              `json:"packages"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	// TimingMs has one entry per analyzer plus "load" (parse and
	// typecheck, shared by all analyzers). Always present so consumers
	// need no fallback path.
	TimingMs map[string]float64 `json:"timing_ms"`
}

// run checks every package of the module enclosing dir with one shared
// fact set, in dependency order.
func run(dir string, analyzers []*lint.Analyzer, asJSON, timing bool) int {
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	module, err := lint.ModulePath(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	loader := lint.NewLoader(root, module)
	paths, err := loader.ModulePackages()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res, err := lint.RunModule(loader, paths, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if asJSON {
		report := jsonReport{
			Version:     version,
			Packages:    res.Packages,
			Diagnostics: []jsonDiagnostic{},
			TimingMs:    timingMs(res),
		}
		for _, d := range res.Diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:       relTo(root, d.Pos.Filename),
				Line:       d.Pos.Line,
				Column:     d.Pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
				Reason:     d.Reason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if res.Unsuppressed() > 0 {
			return 2
		}
		return 0
	}

	exit := 0
	for _, d := range res.Diags {
		if d.Suppressed {
			continue
		}
		fmt.Fprintln(os.Stderr, d)
		exit = 2
	}
	if timing {
		printTiming(res)
	}
	return exit
}

// timingMs flattens a ModuleResult's timing for the JSON report.
func timingMs(res *lint.ModuleResult) map[string]float64 {
	out := map[string]float64{"load": roundMs(res.LoadTime)}
	for name, d := range res.Timing {
		out[name] = roundMs(d)
	}
	return out
}

func roundMs(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

func printTiming(res *lint.ModuleResult) {
	fmt.Fprintf(os.Stderr, "%-16s %10.1fms  (parse + typecheck, %d packages)\n", "load", roundMs(res.LoadTime), res.Packages)
	for _, a := range lint.All() {
		if d, ok := res.Timing[a.Name]; ok {
			fmt.Fprintf(os.Stderr, "%-16s %10.1fms\n", a.Name, roundMs(d))
		}
	}
}

// relTo renders path relative to root when possible; diagnostics stay
// stable across checkouts that way.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("streamadlint: no go.mod found above %s", abs)
		}
		d = parent
	}
}
