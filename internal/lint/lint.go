// Package lint implements streamadlint, a suite of static analyzers
// that machine-check the repository's concurrency, determinism and
// hot-path invariants:
//
//   - hotalloc: no allocating constructs inside //streamad:hotpath
//     functions (the 0 allocs/op serving kernels).
//   - detrand: every RNG flows through internal/randstate so
//     checkpoints restore bit-identically; no global math/rand state,
//     no time-based seeds.
//   - floatsafe: no division by a possibly-zero length, no
//     math.Sqrt/Log of a raw difference, no floats marshalled to JSON
//     from structs that do not declare the finite-guard contract.
//   - lockdiscipline: no field accessed both atomically and plainly, no
//     detector/model calls while holding a //streamad:membership mutex,
//     no Lock without a matching Unlock in the same function.
//   - ctxgoroutine: goroutines are launched only inside
//     //streamad:lifecycle helpers whose shutdown is joined by a
//     Close/Stop path.
//
// The suite mirrors the golang.org/x/tools/go/analysis shape (Analyzer,
// Pass, Reportf) but is built entirely on the standard library's go/ast
// and go/types, because this module deliberately has no third-party
// dependencies. cmd/streamadlint drives it over the whole module.
//
// Findings are suppressed with a directive on the offending line or the
// line above:
//
//	//lint:ignore hotalloc reason...
//	//streamad:ignore detrand,floatsafe reason...
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer flags.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	directives *directiveIndex
	facts      *FactSet
	report     func(Diagnostic)
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
// A covered ignore directive does not delete the finding — it survives
// with Suppressed set and the directive's reason attached, so tooling
// (-json mode, suppression audits) can see the full picture.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
	// Reason is the justification text of the covering ignore
	// directive; empty unless Suppressed.
	Reason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding; an ignore directive covering its line
// marks it suppressed rather than reported.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	d := Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)}
	if p.directives != nil {
		if reason, ok := p.directives.ignored(p.Analyzer.Name, position); ok {
			d.Suppressed = true
			d.Reason = reason
		}
	}
	p.report(d)
}

// All returns the full analyzer catalogue in stable order.
func All() []*Analyzer {
	return []*Analyzer{HotAlloc, DetRand, FloatSafe, LockDiscipline, CtxGoroutine, StateSync, Directive}
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackageFacts applies analyzers to one package, reading and
// writing cross-package facts through fs. Suppressed diagnostics are
// included, flagged and carrying their directive reasons.
func RunPackageFacts(pkg *Package, analyzers []*Analyzer, fs *FactSet) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			directives: pkg.directives,
			facts:      fs,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared AST/type helpers ----

// hasMarker reports whether a comment group contains the given
// machine-readable marker (e.g. "streamad:hotpath") as its own comment
// line or at the start of one.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := trimCommentSlashes(c.Text); ok && hasPrefixWord(text, marker) {
			return true
		}
	}
	return false
}

// trimCommentSlashes strips the // or /* */ framing from one comment.
func trimCommentSlashes(text string) (string, bool) {
	if len(text) >= 2 && text[:2] == "//" {
		return trimSpace(text[2:]), true
	}
	if len(text) >= 4 && text[:2] == "/*" {
		return trimSpace(text[2 : len(text)-2]), true
	}
	return "", false
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// hasPrefixWord reports whether s is word or starts with word followed
// by a space, tab or '('.
func hasPrefixWord(s, word string) bool {
	if len(s) < len(word) || s[:len(word)] != word {
		return false
	}
	if len(s) == len(word) {
		return true
	}
	switch s[len(word)] {
	case ' ', '\t', '(':
		return true
	}
	return false
}

// pkgFunc resolves a call to a package-level function (not a method) and
// returns it, or nil.
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// isPkgCall reports whether call invokes the package-level function
// pkgPath.name.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := pkgFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isConversion reports whether call is a type conversion, returning the
// target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// enclosingFuncs walks every function declaration and literal in the
// file set of a pass, calling fn with the innermost enclosing FuncDecl
// for each node. FuncLits report the FuncDecl that lexically contains
// them (nil at package scope).
func forEachFuncDecl(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn(fd)
			}
		}
	}
}

// containsCallTo reports whether expr contains (at any depth) a call to
// pkgPath.name.
func containsCallTo(info *types.Info, expr ast.Expr, pkgPath, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isPkgCall(info, call, pkgPath, name) {
			found = true
			return false
		}
		return true
	})
	return found
}
