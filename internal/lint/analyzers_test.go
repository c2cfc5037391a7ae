package lint_test

import (
	"testing"

	"streamad/internal/lint"
	"streamad/internal/lint/linttest"
)

func TestDetRand(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.DetRand, "detrand", "detrand/internal/randstate")
}

func TestCtxGoroutine(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.CtxGoroutine, "ctxgoroutine")
}
