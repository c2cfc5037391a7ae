package lint

import (
	"go/ast"
)

// CtxGoroutine confines goroutine launches to lifecycle helpers. The
// serving stack owns exactly three kinds of background goroutines — the
// pool workers, the ingest snapshotter/evictor, and the async fine-tune
// trainers — and each is joined by a Close or Stop path or, for a
// fine-tune, by its detector at the due step. A goroutine launched
// anywhere else can outlive those joins: it keeps stepping a detector
// after its checkpoint was taken, or holds buffers after shutdown, and no
// test will see it except as flakes.
//
// A function that legitimately owns goroutine lifecycles is marked
// //streamad:lifecycle in its doc comment; the marker is a review
// contract that every goroutine it starts is joined before the owning
// subsystem reports closed. Every go statement outside a marked
// function is flagged.
var CtxGoroutine = &Analyzer{
	Name: "ctxgoroutine",
	Doc:  "flags go statements outside //streamad:lifecycle helpers (goroutines that can outlive Close)",
	Run:  runCtxGoroutine,
}

func runCtxGoroutine(p *Pass) error {
	forEachFuncDecl(p.Files, func(fd *ast.FuncDecl) {
		if fd.Body == nil || hasMarker(fd.Doc, "streamad:lifecycle") {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "goroutine launched outside a //streamad:lifecycle helper; it may outlive Close — route it through a lifecycle owner or mark this function")
			}
			return true
		})
	})
	return nil
}
