package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles streamadlint into a temp dir and returns the
// binary path: the exit status and the stdout document are the contract.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "streamadlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building streamadlint: %v\n%s", err, out)
	}
	return bin
}

// writeProbeModule lays out a module whose only finding requires a
// cross-package fact: the allocating helper lives in its own package,
// and the hotpath kernel in the root package calls it. A suppressed
// lazy-init sits alongside for the audit view.
func writeProbeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module vetprobe\n\ngo 1.24\n",
		"helper/helper.go": `// Package helper allocates on behalf of the probe kernel.
package helper

// Grow allocates: append may grow the backing array.
func Grow(xs []float64, v float64) []float64 {
	return append(xs, v)
}
`,
		"probe.go": `// Package vetprobe exercises the driver end to end.
package vetprobe

import "vetprobe/helper"

var sink []float64

//streamad:hotpath
func Kernel(xs []float64) {
	sink = helper.Grow(xs, 1)
}

//streamad:hotpath
func Lazy(n int) []float64 {
	//streamad:ignore hotalloc one-time lazy init for the probe
	return make([]float64, n)
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func errorsAs(err error, target **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*target = e
	}
	return ok
}

// pinnedReport mirrors the -json schema with unknown fields disallowed:
// a field added, renamed or removed in the output breaks this test, by
// design — downstream tooling parses this document.
type pinnedReport struct {
	Version     string             `json:"version"`
	Packages    int                `json:"packages"`
	Diagnostics []pinnedDiagnostic `json:"diagnostics"`
	TimingMs    map[string]float64 `json:"timing_ms"`
}

type pinnedDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason"`
}

// TestJSONSchema pins the -json document: field set, version constant,
// suppressed diagnostics included with their reasons, per-analyzer
// timing present, and the exit status driven by unsuppressed findings
// only.
func TestJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks a probe module; skipped in -short mode")
	}
	bin := buildTool(t)
	mod := writeProbeModule(t)

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-json", mod)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errorsAs(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("got %v (stderr %q), want exit 2 for the probe's finding", err, stderr.String())
	}

	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	var report pinnedReport
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("-json output does not match the pinned schema: %v", err)
	}
	if report.Version != version {
		t.Errorf("version = %q, want %q", report.Version, version)
	}
	if report.Packages != 2 {
		t.Errorf("packages = %d, want 2", report.Packages)
	}
	var kernel, lazy *pinnedDiagnostic
	for i := range report.Diagnostics {
		d := &report.Diagnostics[i]
		if d.Analyzer != "hotalloc" {
			t.Errorf("unexpected %s diagnostic: %s", d.Analyzer, d.Message)
			continue
		}
		switch {
		case strings.Contains(d.Message, "helper.Grow"):
			kernel = d
		case strings.Contains(d.Message, "make allocates"):
			lazy = d
		}
	}
	if kernel == nil {
		t.Fatalf("missing the cross-package finding; got %+v", report.Diagnostics)
	}
	if kernel.Suppressed || kernel.Reason != "" {
		t.Errorf("live finding marked suppressed: %+v", kernel)
	}
	if kernel.File != "probe.go" || kernel.Line == 0 || kernel.Column == 0 {
		t.Errorf("finding not positioned relative to the module root: %+v", kernel)
	}
	if lazy == nil {
		t.Fatal("suppressed lazy-init diagnostic missing from the audit view")
	}
	if !lazy.Suppressed || !strings.Contains(lazy.Reason, "one-time lazy init") {
		t.Errorf("suppressed diagnostic lost its directive reason: %+v", lazy)
	}
	if _, ok := report.TimingMs["load"]; !ok {
		t.Errorf("timing_ms has no load entry: %v", report.TimingMs)
	}
	if _, ok := report.TimingMs["hotalloc"]; !ok {
		t.Errorf("timing_ms has no hotalloc entry: %v", report.TimingMs)
	}
}
