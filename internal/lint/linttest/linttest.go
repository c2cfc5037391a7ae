// Package linttest runs lint analyzers over fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest (which this
// module cannot depend on): fixture sources live under
// testdata/src/<path>/, and every line expected to produce a finding
// carries a trailing comment of the form
//
//	// want "regexp"
//	// want `regexp` "second regexp"
//
// Run parses each fixture package, applies the analyzer, and reports a
// test error for every diagnostic without a matching want and every
// want without a matching diagnostic.
package linttest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"streamad/internal/lint"
)

// Run applies analyzer a to the fixture packages under dir (typically
// "testdata/src") named by pkgPaths, checking diagnostics against the
// fixtures' want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	for _, path := range pkgPaths {
		pkg, err := lint.Load(fset, filepath.Join(dir, filepath.FromSlash(path)), path)
		if err != nil || pkg == nil {
			t.Errorf("linttest: load %s: %v", path, err)
			continue
		}
		checkWants(t, pkg, lint.Run([]*lint.Analyzer{a}, []*lint.Package{pkg}))
	}
}

type want struct {
	pos token.Position
	rx  *regexp.Regexp
	hit bool
}

func checkWants(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.pos.Filename == d.Pos.Filename && w.pos.Line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.hit, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: expected diagnostic matching %q, got none", w.pos, w.rx)
		}
	}
}

// collectWants parses the // want comments of every fixture file.
func collectWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//")
				rest, isWant := strings.CutPrefix(strings.TrimSpace(body), "want ")
				if !ok || !isWant {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range parseWantPatterns(t, pos, rest) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{pos: pos, rx: rx})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns splits `"p1" "p2"` or backquoted forms.
func parseWantPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		quoted, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: want patterns must be quoted, got: %s", pos, s)
		}
		pat, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", pos, quoted, err)
		}
		pats = append(pats, pat)
		s = s[len(quoted):]
	}
	return pats
}
