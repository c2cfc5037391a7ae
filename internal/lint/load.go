package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package with the syntax the analyzers
// walk. Test files (*_test.go) are excluded: the invariants guard the
// shipped serving paths, and test-only allocations are fine.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives *directiveIndex
}

// Loader parses and type-checks packages for analysis. It resolves
// intra-module imports itself (the module layout maps import paths to
// directories directly) and defers everything else — the standard
// library — to the compile-from-source importer, so no export data or
// network is needed.
type Loader struct {
	// Root is the directory packages are resolved under.
	Root string
	// Module is the module path; import paths Module and Module/...
	// resolve into Root. When Module is empty the loader is in fixture
	// mode: any import path whose directory exists under Root is local —
	// the layout used by the analyzer test fixtures (testdata/src).
	Module string

	Fset *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader rooted at root. module may be empty for
// fixture mode.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   make(map[string]*Package),
		busy:   make(map[string]bool),
	}
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// localDir maps an import path to a directory under Root, or "".
func (l *Loader) localDir(path string) string {
	if l.Module != "" {
		if path == l.Module {
			return l.Root
		}
		if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
			return filepath.Join(l.Root, filepath.FromSlash(rest))
		}
		return ""
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d := l.localDir(path); d != "" {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}

// Load parses and type-checks the package at the given import path
// (which must resolve locally), memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir := l.localDir(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %q is not a local package", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	files, err := parseDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg := &Package{
		Path:       path,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: buildDirectiveIndex(l.Fset, files),
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test .go file of dir in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ModulePackages walks Root and returns the import path of every
// package directory (one containing at least one non-test .go file),
// sorted. testdata, vendor and dot-directories are skipped.
func (l *Loader) ModulePackages() ([]string, error) {
	if l.Module == "" {
		return nil, fmt.Errorf("lint: ModulePackages requires module mode")
	}
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") &&
				!strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
				rel, err := filepath.Rel(l.Root, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.Module)
				} else {
					paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
