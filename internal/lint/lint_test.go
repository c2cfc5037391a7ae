package lint_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"streamad/internal/lint"
)

// TestSuiteCleanOnRepo is the self-application gate: both checks must
// find nothing on the repository they ship in. A finding here means new
// code broke an invariant: fix it, or mark a goroutine's owner
// //streamad:lifecycle.
func TestSuiteCleanOnRepo(t *testing.T) {
	fset, files, err := lint.Parse("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found in module")
	}
	for _, f := range lint.Check(fset, files) {
		t.Errorf("%s", f)
	}
}

// The fixtures under testdata/src mark every line that must produce a
// finding with a trailing comment of the form
//
//	// want "regexp"
//	// want `regexp` "second regexp"
//
// and checkFixtures applies both checks to a fixture tree, failing on a
// finding without a matching want and on a want without a finding. The
// two trees are disjoint, so each is also checked for the other check's
// false positives.

func TestDetRand(t *testing.T) { checkFixtures(t, "testdata/src/detrand") }

func TestCtxGoroutine(t *testing.T) { checkFixtures(t, "testdata/src/ctxgoroutine") }

func checkFixtures(t *testing.T, root string) {
	t.Helper()
	fset, files, err := lint.Parse(root)
	if err != nil || len(files) == 0 {
		t.Fatalf("parse %s: %d files, %v", root, len(files), err)
	}
	type want struct {
		line string // file:line
		rx   *regexp.Regexp
	}
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				pos := fset.Position(c.Pos())
				for ok && rest != "" {
					quoted, err := strconv.QuotedPrefix(rest)
					pat, _ := strconv.Unquote(quoted)
					rx, rxErr := regexp.Compile(pat)
					if err != nil || rxErr != nil {
						t.Fatalf("%s: bad want pattern in %q", pos, rest)
					}
					wants = append(wants, &want{pos.Filename + ":" + strconv.Itoa(pos.Line), rx})
					rest = strings.TrimSpace(rest[len(quoted):])
				}
			}
		}
	}
findings:
	for _, f := range lint.Check(fset, files) {
		line := f.Pos.Filename + ":" + strconv.Itoa(f.Pos.Line)
		for i, w := range wants {
			if w.line == line && w.rx.MatchString(f.Message) {
				wants = append(wants[:i], wants[i+1:]...)
				continue findings
			}
		}
		t.Errorf("unexpected finding %s", f)
	}
	for _, w := range wants {
		t.Errorf("%s: expected a finding matching %q, got none", w.line, w.rx)
	}
}
