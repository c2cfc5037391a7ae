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
// Each check is a function over one parsed file, built on go/parser
// alone: both resolve names through the file's import table, so no
// type-checker is needed. TestSuiteCleanOnRepo applies them to the whole
// module inside go test.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// A Finding is one violation, positioned and attributed to its check.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message) }

// checks lists every check in report order. A check inspects one file,
// whose slash-separated name it is given, and reports each violation.
var checks = []struct {
	name string
	run  func(f *ast.File, file string, report func(token.Pos, string))
}{
	{"detrand", detRand},
	{"ctxgoroutine", ctxGoroutine},
}

// Check applies every check to each file parsed into fset and returns
// the findings in file order.
func Check(fset *token.FileSet, files []*ast.File) []Finding {
	var out []Finding
	for _, f := range files {
		name := filepath.ToSlash(fset.File(f.Pos()).Name())
		for _, c := range checks {
			c.run(f, name, func(pos token.Pos, msg string) {
				out = append(out, Finding{fset.Position(pos), c.name, msg})
			})
		}
	}
	return out
}

// Parse parses every non-test .go file under root, skipping testdata,
// vendor, dot- and underscore-directories below it: the invariants
// guard the shipped code.
func Parse(root string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := d.Name(); {
		case d.IsDir():
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, "."):
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		return nil
	})
	return fset, files, err
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
