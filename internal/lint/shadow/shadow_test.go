package shadow_test

import (
	"testing"

	"adjarray/internal/lint/linttest"
	"adjarray/internal/lint/shadow"
)

func TestShadow(t *testing.T) {
	linttest.Run(t, "testdata/shadowtest", shadow.Analyzer)
}
