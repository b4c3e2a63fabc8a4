package typedatomic_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/typedatomic"
)

func TestTypedatomic(t *testing.T) {
	linttest.Run(t, "testdata", typedatomic.Analyzer, "a")
}
