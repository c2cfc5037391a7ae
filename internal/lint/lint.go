// Package lint implements the repository's own static checks, two
// lexical invariants that no runtime test can observe:
//
//   - detrand: every RNG flows through internal/randstate so
//     checkpoints restore bit-identically; no global math/rand state,
//     no time-based seeds.
//   - ctxgoroutine: goroutines are launched only inside
//     //streamad:lifecycle helpers whose shutdown is joined by a
//     Close/Stop path.
//
// The suite mirrors the golang.org/x/tools/go/analysis shape (Analyzer,
// Pass, Reportf) but is built on go/parser alone: both checks resolve
// names through a file's import table, so no type-checker is needed.
// TestSuiteCleanOnRepo applies it to the whole module inside go test.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run applies the analyzer to one package.
	Run func(*Pass)
}

// A Pass provides one analyzer with one parsed package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the package's import path.
	PkgPath string

	report func(Diagnostic)
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer catalogue in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, CtxGoroutine}
}

// Run applies analyzers to every package and returns the findings,
// package by package.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.Path,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			})
		}
	}
	return diags
}

// hasMarker reports whether a doc comment carries the given marker
// (e.g. "streamad:lifecycle") at the start of one of its lines.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
		if len(fields) > 0 && fields[0] == marker {
			return true
		}
	}
	return false
}

// imports maps each name a file binds to an import path. Blank and dot
// imports bind nothing a selector can name.
func imports(f *ast.File) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, "`\"")
		name := path[strings.LastIndexByte(path, '/')+1:]
		if path == "math/rand/v2" {
			name = "rand"
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name != "_" && name != "." {
			m[name] = path
		}
	}
	return m
}

// pkgRef resolves sel as a reference into an imported package, returning
// the package path and the selected name. A selector whose left side is
// declared in the file (a local variable shadowing an import, say) is
// not a package reference: the parser resolved its identifier.
func pkgRef(imps map[string]string, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent || id.Obj != nil {
		return "", "", false
	}
	path, ok = imps[id.Name]
	return path, sel.Sel.Name, ok
}
