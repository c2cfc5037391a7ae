package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"strings"
)

// detRand enforces the repo's deterministic-RNG contract: every source
// of randomness flows through internal/randstate, whose CountedSource
// records (seed, draws) so a restored checkpoint fast-forwards to the
// exact stream position and replays bit-identically.
//
// Flagged in any file outside a directory named internal/randstate:
//
//   - any use of math/rand's package-level state (rand.Intn,
//     rand.Float64, rand.Seed, ...): the global source is shared across
//     goroutines and cannot be checkpointed;
//   - rand.NewSource / rand.NewZipf and the math/rand/v2 constructors:
//     raw sources bypass the draw counter, so a checkpoint cannot
//     restore their position;
//   - a time.Now()-derived seed in any RNG constructor (including
//     randstate's): wall-clock seeds make runs unreproducible.
//
// rand.New itself is fine — wrapping a *randstate.CountedSource is
// exactly the sanctioned pattern — and so are math/rand's type names and
// the methods of a *rand.Rand value, which are not package references.
func detRand(f *ast.File, file string, report func(token.Pos, string)) {
	exempt := strings.HasSuffix(path.Dir(file), randstateSuffix)
	imps := imports(f)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if path, name, ok := pkgRef(imps, n); ok && !exempt && isRandPath(path) {
				checkRandRef(report, n, name)
			}
		case *ast.CallExpr:
			checkTimeSeed(report, imps, n)
		}
		return true
	})
}

// randstateSuffix identifies the one package allowed to touch raw
// sources (matched by suffix so fixtures can model it).
const randstateSuffix = "internal/randstate"

// randTypes are the type names math/rand and math/rand/v2 export;
// every other exported name is a function over global or raw state.
var randTypes = map[string]bool{"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true}

func isRandPath(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// checkRandRef flags a forbidden reference into math/rand[/v2].
func checkRandRef(report func(token.Pos, string), sel *ast.SelectorExpr, name string) {
	switch {
	case name == "New" || randTypes[name]:
	case name == "NewSource" || name == "NewZipf" || name == "NewPCG" || name == "NewChaCha8":
		report(sel.Pos(), fmt.Sprintf("raw rand.%s bypasses internal/randstate; use randstate.NewCountedSource so checkpoints restore bit-identically", name))
	default:
		report(sel.Pos(), fmt.Sprintf("global math/rand state (rand.%s) is shared and not checkpointable; draw from a *rand.Rand built over randstate.NewCountedSource", name))
	}
}

// checkTimeSeed flags time.Now-derived seeds inside RNG constructors.
func checkTimeSeed(report func(token.Pos, string), imps map[string]string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	path, name, ok := pkgRef(imps, sel)
	if !ok || !strings.HasPrefix(name, "New") || !(isRandPath(path) || strings.HasSuffix(path, randstateSuffix)) {
		return
	}
	for _, arg := range call.Args {
		if callsTimeNow(imps, arg) {
			report(arg.Pos(), "time-seeded RNG makes runs unreproducible; derive the seed from configuration")
		}
	}
}

// callsTimeNow reports whether expr contains, at any depth, a call to
// time.Now.
func callsTimeNow(imps map[string]string, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				path, name, ok := pkgRef(imps, sel)
				found = ok && path == "time" && name == "Now"
			}
		}
		return !found
	})
	return found
}
