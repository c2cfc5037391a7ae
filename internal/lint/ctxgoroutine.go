package lint

import (
	"go/ast"
	"go/token"
)

// ctxGoroutine confines goroutine launches to lifecycle helpers. Every
// background goroutine the module starts has one of eight owners — the pool
// workers and trainer slots, the ingest snapshotter and evictor, the
// cluster prober, rebalancer and standby, the async fine-tune trainer,
// the batch forwarder, the daemon's serve goroutine and the load
// generator's workers — and each is joined by a Close, Stop or Wait path
// or, for a fine-tune, by its detector at the due step. A goroutine
// launched anywhere else can outlive those joins: it keeps stepping a
// detector after its checkpoint was taken, or holds buffers after
// shutdown, and no test will see it except as flakes.
//
// A function that legitimately owns goroutine lifecycles is marked
// //streamad:lifecycle in its doc comment; the marker is a review
// contract that every goroutine it starts is joined before the owning
// subsystem reports closed. Every go statement outside a marked
// function is flagged.
func ctxGoroutine(f *ast.File, _ string, report func(token.Pos, string)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || hasMarker(fd.Doc, "streamad:lifecycle") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g.Pos(), "goroutine launched outside a //streamad:lifecycle helper; it may outlive Close — route it through a lifecycle owner or mark this function")
			}
			return true
		})
	}
}
