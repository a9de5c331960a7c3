package main

import "testing"

// TestModuleIsClean runs the whole suite over the module, as CI's lint
// job does: every finding fails the test by name.
func TestModuleIsClean(t *testing.T) {
	findings, err := run("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s [%s]", f.Position, f.Message, f.Analyzer)
	}
}
