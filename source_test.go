package adjarray_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// goSources lists the non-test .go files under dir — its subdirectories
// too when recursive — skipping testdata, whose files are analyzer
// fixtures and generators, not the program.
func goSources(t *testing.T, dir string, recursive bool) (names []string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && (!recursive || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			names = append(names, path)
		}
		return nil
	})
	if err != nil || len(names) == 0 {
		t.Fatalf("no sources under %s (%v)", dir, err)
	}
	return names
}

// parseGo parses one source file, comments dropped.
func parseGo(t *testing.T, fset *token.FileSet, name string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
