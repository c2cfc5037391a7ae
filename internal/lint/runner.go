package lint

import (
	"fmt"
	"sort"
	"time"
)

// ModuleResult is the outcome of a whole-module run: every diagnostic
// (suppressed ones included, carrying their directive reasons) plus the
// per-analyzer wall-clock cost of the analysis itself, which
// BENCH_lint.json tracks so the fact layer's overhead stays visible.
type ModuleResult struct {
	Diags    []Diagnostic
	Packages int
	// Timing is the cumulative analysis time per analyzer across all
	// packages. Loading (parse + typecheck) is accounted separately
	// under LoadTime because it is shared by every analyzer.
	Timing   map[string]time.Duration
	LoadTime time.Duration
}

// Unsuppressed reports how many diagnostics survived their lines'
// directives — the count that should gate CI.
func (r *ModuleResult) Unsuppressed() int {
	n := 0
	for _, d := range r.Diags {
		if !d.Suppressed {
			n++
		}
	}
	return n
}

// RunModule loads the packages at paths and applies analyzers to each
// in dependency order, so facts exported while analyzing a package are
// visible to every package that imports it — the ordering that makes
// transitive hotalloc sound. The loader's memoization means shared
// dependencies are loaded once.
func RunModule(l *Loader, paths []string, analyzers []*Analyzer) (*ModuleResult, error) {
	res := &ModuleResult{Timing: make(map[string]time.Duration)}

	loadStart := time.Now()
	pkgs := make(map[string]*Package, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs[path] = pkg
	}
	order, err := dependencyOrder(pkgs)
	if err != nil {
		return nil, err
	}
	res.LoadTime = time.Since(loadStart)
	res.Packages = len(order)

	fs := NewFactSet()
	for _, pkg := range order {
		for _, a := range analyzers {
			start := time.Now()
			diags, err := RunPackageFacts(pkg, []*Analyzer{a}, fs)
			if err != nil {
				return nil, err
			}
			res.Timing[a.Name] += time.Since(start)
			res.Diags = append(res.Diags, diags...)
		}
	}
	sortDiagnostics(res.Diags)
	return res, nil
}

// dependencyOrder sorts packages so every package follows all of its
// in-set dependencies (DFS postorder over the import graph restricted
// to the set). Load order already guarantees acyclicity; the cycle
// check here is defensive.
func dependencyOrder(pkgs map[string]*Package) ([]*Package, error) {
	// Deterministic roots: iterate paths sorted.
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[string]int, len(pkgs))
	order := make([]*Package, 0, len(pkgs))
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %q", path)
		}
		state[path] = grey
		pkg := pkgs[path]
		for _, imp := range pkg.Types.Imports() {
			if _, ok := pkgs[imp.Path()]; ok {
				if err := visit(imp.Path()); err != nil {
					return err
				}
			}
		}
		state[path] = black
		order = append(order, pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}
