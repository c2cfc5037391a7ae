package lint_test

import (
	"testing"

	"streamad/internal/lint"
)

// TestSuiteCleanOnRepo is the self-application gate: the full analyzer
// suite must produce zero diagnostics on the repository it ships in. A
// finding here means new code broke an invariant: fix it, or mark a
// goroutine's owner //streamad:lifecycle.
func TestSuiteCleanOnRepo(t *testing.T) {
	pkgs, err := lint.ModulePackages("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found in module")
	}
	for _, d := range lint.Run(lint.All(), pkgs) {
		t.Errorf("%s", d)
	}
}
