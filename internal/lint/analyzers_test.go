package lint_test

import (
	"testing"

	"streamad/internal/lint"
	"streamad/internal/lint/linttest"
)

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.HotAlloc, "hotalloc", "tier0")
}

// TestHotAllocTransitive exercises the fact layer: the allocating
// callees live in hotalloc2/helper, analyzed first, and the kernels in
// hotalloc2 are flagged at their call sites through imported facts.
func TestHotAllocTransitive(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.HotAlloc, "hotalloc2/helper", "hotalloc2")
}

func TestStateSync(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.StateSync, "statesync")
}

func TestDirective(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Directive, "directive")
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.DetRand, "detrand", "detrand/internal/randstate")
}

func TestFloatSafe(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.FloatSafe, "floatsafe")
}

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.LockDiscipline, "lockdiscipline")
}

func TestCtxGoroutine(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.CtxGoroutine, "ctxgoroutine")
}
