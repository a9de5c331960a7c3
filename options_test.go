package adjarray_test

import (
	"go/ast"
	"go/token"
	"testing"
)

// An option is a configuration every test and benchmark has to cover, so
// each one must have a caller that needs it: every field of the option
// structs below is a key of a composite literal of its type in some
// non-test file of a binary, the benchmark, an example or internal/core
// (which maps the binaries' flags onto the layers below) — or is on the
// list, with the reason a field no program sets is still a field. One
// that is neither becomes a constant, not a flag.
func TestEveryOptionHasASetter(t *testing.T) {
	// The option structs: where each is declared, and the qualified names
	// callers know it by (the facade and assoc re-export some by alias).
	structs := []struct {
		dir, name string
		spelled   []string
	}{
		{"internal/sparse", "MxmOptions", []string{"sparse.MxmOptions", "assoc.MulOptions", "adjarray.MulOptions"}},
		{"internal/stream", "DurableOptions", []string{"stream.DurableOptions", "adjarray.DurableStreamOptions"}},
		{"internal/wal", "Options", []string{"wal.Options"}},
		{"internal/core", "Request", []string{"core.Request", "adjarray.BuildRequest"}},
		{"internal/core", "IngestOptions", []string{"core.IngestOptions"}},
		{"internal/serve", "Options", []string{"serve.Options"}},
	}
	allowed := map[string]string{
		"sparse.MxmOptions.FlopFloor":  "a differential test's only way to force the parallel engine on a small input (the golden figures and the conformance paths run it)",
		"serve.Options.MaxIngestEdges": "a bound on outside input, which FuzzIngestBody lowers to reach",
		"stream.DurableOptions.FS":     "substitution seam: the fault tests hand in an injecting FS",
		"serve.Options.Registry":       "substitution seam: a caller that already owns a registry",
	}

	fset := token.NewFileSet()

	// fields[qualified type name] = its fields, under every spelling.
	fields := map[string][]string{}
	canonical := map[string]string{}
	for _, s := range structs {
		var found []string
		for _, name := range goSources(t, s.dir, false) {
			ast.Inspect(parseGo(t, fset, name), func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != s.name {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							found = append(found, id.Name)
						}
					}
				}
				return false
			})
		}
		if len(found) == 0 {
			t.Fatalf("%s declares no struct %s", s.dir, s.name)
		}
		for _, q := range s.spelled {
			fields[q], canonical[q] = found, s.spelled[0]
		}
	}

	set := map[string]bool{} // canonical type name + "." + field
	for _, root := range []string{"cmd", "bench", "examples", "internal/core"} {
		for _, name := range goSources(t, root, true) {
			f := parseGo(t, fset, name)
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				q := qualifiedName(lit.Type, f.Name.Name)
				if _, ok := fields[q]; !ok {
					return true
				}
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[canonical[q]+"."+id.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	for _, s := range structs {
		q := s.spelled[0]
		for _, field := range fields[q] {
			key := q + "." + field
			_, listed := allowed[key]
			switch {
			case set[key] && listed:
				t.Errorf("%s is on the list and a program sets it: take it off", key)
			case !set[key] && !listed:
				t.Errorf("%s is set by no non-test file under cmd/, bench/, examples/ or internal/core: make it a constant, or put it on this test's list with the reason only a test sets it", key)
			}
			delete(allowed, key)
		}
	}
	for key := range allowed {
		t.Errorf("%s is on the list and no longer a field: take it off", key)
	}
}

// qualifiedName spells a composite literal's type the way a caller does —
// pkg.Name, type arguments dropped — with a bare Name read as declared in
// the file's own package.
func qualifiedName(e ast.Expr, pkg string) string {
	switch x := e.(type) {
	case *ast.IndexExpr:
		return qualifiedName(x.X, pkg)
	case *ast.IndexListExpr:
		return qualifiedName(x.X, pkg)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + x.Sel.Name
		}
	case *ast.Ident:
		return pkg + "." + x.Name
	}
	return ""
}
