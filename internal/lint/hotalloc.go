package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocating constructs inside functions marked
// //streamad:hotpath. The marker is the machine-readable form of the
// repo's 0-allocs/op contract for the serving kernels (Detector.Step,
// the ForwardInto/BackwardInto families, scorer updates): AllocsPerRun
// tests catch a regression at test time, hotalloc catches it at vet
// time and points at the construct that allocates.
//
// Flagged inside a hotpath body: make, new, append, slice/map/array
// composite literals, address-taken struct literals, closures (func
// literals capture their environment on the heap), go statements,
// string concatenation, string<->[]byte/[]rune conversions, and calls
// into fmt or errors (variadic ...interface{} boxes every argument).
//
// The check is transitive: every function in the module carries an
// AllocFact (does its body allocate, directly or through anything it
// statically calls?), propagated across package boundaries through the
// fact layer. A hotpath kernel calling an allocating helper in another
// package is flagged at the call site with the chain that allocates.
// Functions themselves marked //streamad:hotpath are trusted
// non-allocating (their own bodies are checked, and their suppressions
// audited); dynamic calls through interfaces are outside the static
// reach and stay covered by the AllocsPerRun backstop.
//
// Deliberate one-time lazy initialization on a hot path is suppressed
// line-by-line with //streamad:ignore hotalloc <reason>; a suppressed
// construct is also excluded from its function's AllocFact, so an
// audited lazy-init helper does not poison every hotpath caller.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocating constructs inside //streamad:hotpath functions, transitively through static calls",
	Run:  runHotAlloc,
}

// AllocFact marks a function whose body allocates, directly or through
// a static callee. Why records one representative cause for the
// diagnostic chain ("slice literal", "calls streamad/internal/x.F").
type AllocFact struct {
	Why string
}

// AFact implements Fact.
func (*AllocFact) AFact() {}

func runHotAlloc(p *Pass) error {
	// Pass 1: classify every declared function — is it hotpath-marked,
	// does its body contain an (unsuppressed) allocating construct, and
	// which functions does it statically call?
	type funcInfo struct {
		decl    *ast.FuncDecl
		hotpath bool
		why     string // non-empty once known to allocate
		callees []*types.Func
	}
	infos := make(map[*types.Func]*funcInfo)
	var order []*types.Func
	forEachFuncDecl(p.Files, func(fd *ast.FuncDecl) {
		fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok || fd.Body == nil {
			return
		}
		fi := &funcInfo{decl: fd, hotpath: hasMarker(fd.Doc, "streamad:hotpath")}
		fi.why = p.directAllocReason(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCallee(p.TypesInfo, call); callee != nil {
					fi.callees = append(fi.callees, callee)
				}
			}
			return true
		})
		infos[fn] = fi
		order = append(order, fn)
	})

	// Pass 2: propagate allocation through the local call graph to a
	// fixpoint. Cross-package callees contribute through their facts
	// (their packages were analyzed first); stdlib fmt/errors calls are
	// known allocators, the rest of the stdlib is out of scope.
	calleeWhy := func(callee *types.Func) string {
		if target, ok := infos[callee]; ok { // same package
			if target.hotpath || target.why == "" {
				return ""
			}
			return fmt.Sprintf("calls %s, which allocates (%s)", qualifiedName(callee), target.why)
		}
		if callee.Pkg() == nil || callee.Pkg() == p.Pkg {
			return ""
		}
		switch callee.Pkg().Path() {
		case "fmt", "errors":
			return fmt.Sprintf("%s.%s allocates (interface boxing)", callee.Pkg().Name(), callee.Name())
		}
		var fact AllocFact
		if p.ImportObjectFact(callee, &fact) {
			return fmt.Sprintf("calls %s, which allocates (%s)", qualifiedName(callee), fact.Why)
		}
		return ""
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			fi := infos[fn]
			if fi.why != "" || fi.hotpath {
				continue
			}
			for _, callee := range fi.callees {
				if why := calleeWhy(callee); why != "" {
					fi.why = why
					changed = true
					break
				}
			}
		}
	}
	for _, fn := range order {
		if fi := infos[fn]; fi.why != "" && !fi.hotpath {
			p.ExportObjectFact(fn, &AllocFact{Why: fi.why})
		}
	}

	// Pass 3: check hotpath bodies — direct constructs as before, plus
	// static calls to anything the facts say allocates.
	for _, fn := range order {
		fi := infos[fn]
		if !fi.hotpath {
			continue
		}
		checkHotBody(p, fi.decl.Body)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(p.TypesInfo, call)
			if callee == nil {
				return true
			}
			if target, ok := infos[callee]; ok {
				if !target.hotpath && target.why != "" {
					p.Reportf(call.Pos(), "call to %s allocates on a hot path: %s", qualifiedName(callee), target.why)
				}
				return true
			}
			if callee.Pkg() == nil || callee.Pkg() == p.Pkg {
				return true
			}
			switch callee.Pkg().Path() {
			case "fmt", "errors":
				// Reported by checkHotCall with the established message.
				return true
			}
			var fact AllocFact
			if p.ImportObjectFact(callee, &fact) {
				p.Reportf(call.Pos(), "call to %s allocates on a hot path: %s", qualifiedName(callee), fact.Why)
			}
			return true
		})
	}
	return nil
}

// directAllocReason reports the first allocating construct in body that
// no hotalloc suppression covers, as a short reason string ("" when the
// body is allocation-free).
func (p *Pass) directAllocReason(body *ast.BlockStmt) string {
	reason := ""
	suppressed := func(pos token.Pos) bool {
		if p.directives == nil {
			return false
		}
		_, ok := p.directives.ignored("hotalloc", p.Fset.Position(pos))
		return ok
	}
	found := func(pos token.Pos, what string) {
		if reason == "" && !suppressed(pos) {
			reason = fmt.Sprintf("%s at %s", what, p.Fset.Position(pos))
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(p.TypesInfo, n, "append"):
				found(n.Pos(), "append")
			case isBuiltin(p.TypesInfo, n, "make"):
				found(n.Pos(), "make")
			case isBuiltin(p.TypesInfo, n, "new"):
				found(n.Pos(), "new")
			default:
				if to, ok := isConversion(p.TypesInfo, n); ok && len(n.Args) == 1 {
					from := p.TypesInfo.Types[n.Args[0]].Type
					if from != nil && stringBytesConversion(from, to) {
						found(n.Pos(), "string/byte-slice conversion")
					}
				}
			}
		case *ast.CompositeLit:
			if t := p.TypesInfo.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					found(n.Pos(), "slice literal")
				case *types.Map:
					found(n.Pos(), "map literal")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					found(n.Pos(), "address-taken composite literal")
				}
			}
		case *ast.FuncLit:
			found(n.Pos(), "closure")
			return false
		case *ast.GoStmt:
			found(n.Pos(), "go statement")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := p.TypesInfo.Types[n].Type; t != nil && isString(t) {
					found(n.Pos(), "string concatenation")
				}
			}
		}
		return true
	})
	return reason
}

// staticCallee resolves call to the concrete function or method it
// statically invokes, or nil for builtins, conversions, function-typed
// variables and interface dispatch.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil // dynamic dispatch: unknowable statically
		}
	}
	return fn
}

// qualifiedName renders pkg.F or pkg.(T).M for diagnostics.
func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedRecvType(sig.Recv().Type()); named != nil {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func checkHotBody(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n)
		case *ast.CompositeLit:
			t := p.TypesInfo.Types[n].Type
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates on a hot path")
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates on a hot path")
			case *types.Array:
				// Arrays are values; only flag when address-taken below.
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					p.Reportf(n.Pos(), "address-taken composite literal escapes to the heap on a hot path")
				}
			}
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "closure allocates (captured environment) on a hot path")
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "go statement allocates a goroutine on a hot path")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := p.TypesInfo.Types[n].Type; t != nil && isString(t) {
					p.Reportf(n.Pos(), "string concatenation allocates on a hot path")
				}
			}
		}
		return true
	})
}

func checkHotCall(p *Pass, call *ast.CallExpr) {
	switch {
	case isBuiltin(p.TypesInfo, call, "append"):
		p.Reportf(call.Pos(), "append may grow its backing array on a hot path; use a preallocated buffer")
	case isBuiltin(p.TypesInfo, call, "make"):
		p.Reportf(call.Pos(), "make allocates on a hot path; hoist the buffer into reusable scratch")
	case isBuiltin(p.TypesInfo, call, "new"):
		p.Reportf(call.Pos(), "new allocates on a hot path; hoist the value into reusable scratch")
	default:
		if to, ok := isConversion(p.TypesInfo, call); ok {
			if len(call.Args) == 1 {
				from := p.TypesInfo.Types[call.Args[0]].Type
				if from != nil && stringBytesConversion(from, to) {
					p.Reportf(call.Pos(), "string/byte-slice conversion copies on a hot path")
				}
			}
			return
		}
		if fn := pkgFunc(p.TypesInfo, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt", "errors":
				p.Reportf(call.Pos(), "%s.%s allocates (interface boxing) on a hot path", fn.Pkg().Name(), fn.Name())
			}
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func stringBytesConversion(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}
