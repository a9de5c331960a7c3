package adjarray_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Surface is what every reader has to learn, so each exported name under
// internal/ needs a caller in the program, not only in its tests: its
// identifier occurs in another non-test file of the module, or in its own
// file outside its declaration — or it is on the list, with the reason a
// name no program uses still is one. Matching is by identifier, not by
// resolved object, so a common method name passes on anyone's call; the
// test errs toward passing and never fails falsely. The same holds one
// level up: every internal package is imported by a non-test file outside
// itself, or is listed (and then its names are not checked one by one).
// A method of an unexported type is no exported name: it satisfies an
// interface or nothing.
func TestNoDeadExports(t *testing.T) {
	allowed := map[string]string{
		"assoc.ReduceAll":              "the total the algo, conformance-law and dataset tests check a product against",
		"assoc.Array.RowDegrees":       "the figure tests check the paper's Figure 1 out-degrees through it",
		"dataset.Figure1RowDegrees":    "the paper's Figure 1 out-degrees, which the root figure tests check",
		"graph.VerifyReverse":          "Corollary III.1, checked by the graph, dataset and root tests",
		"graph.Graph.HasEdge":          "a method of the public adjarray.Graph alias",
		"graph.Graph.EdgeKeys":         "a method of the public adjarray.Graph alias",
		"graph.Graph.EdgesBetween":     "a method of the public adjarray.Graph alias",
		"keys.Set.Interned":            "the keys, stream and graph tests assert through it that a set was built interned",
		"semiring.KernelGeneric":       "the zero ScalarKernel, named so that no kernel reads as generic",
		"iofault.Wrap":                 "the fault injector that the stream, wal and serve fault tests arm",
		"iofault.Injector.Arm":         "the fault injector that the stream, wal and serve fault tests arm",
		"iofault.Injector.ArmRandom":   "the fault injector that the stream, wal and serve fault tests arm",
		"iofault.Injector.Clear":       "the fault injector that the stream, wal and serve fault tests arm",
		"iofault.Injector.Injected":    "the fault injector that the stream, wal and serve fault tests arm",
		"dataset.ErdosRenyi":           "queued: a generator the algo and root tests draw inputs from",
		"dataset.RMAT":                 "queued: a generator the algo, stream, serve and root tests draw inputs from",
		"dataset.Bipartite":            "queued: a generator a root benchmark draws inputs from",
		"dataset.DocCorpus":            "queued: the corpus a root benchmark checks shared-word counts on",
		"dataset.SharedWordsExpected":  "queued: the count that root benchmark checks against",
		"dataset.SyntheticTable":       "queued: the table a root benchmark explodes",
		"dataset.DefaultSyntheticSpec": "queued: the spec of that table",
	}
	allowedPackages := map[string]string{
		"adjarray/internal/lint/linttest": "the analyzers' test harness, imported by their tests only",
	}

	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	inFiles := map[string]int{} // identifier → how many files it occurs in
	for _, name := range goSources(t, ".", true) {
		f := parseGo(t, fset, name)
		files[name] = f
		seen := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !seen[id.Name] {
				seen[id.Name] = true
				inFiles[id.Name]++
			}
			return true
		})
	}

	declared, dead := map[string]bool{}, map[string]bool{}
	imported := map[string]bool{} // import path → imported from another directory
	packages := map[string]bool{}
	for name, f := range files {
		dir := filepath.ToSlash(filepath.Dir(name))
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path != "adjarray/"+dir {
				imported[path] = true
			}
		}
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		packages["adjarray/"+dir] = true
		if _, listed := allowedPackages["adjarray/"+dir]; listed {
			continue
		}
		for _, d := range exportedDecls(f) {
			key := f.Name.Name + "." + d.qualified
			declared[key] = true
			if inFiles[d.id.Name] < 2 && !occursOutside(f, d.id.Name, d.node) {
				dead[key] = true
			}
		}
	}
	unimported := map[string]bool{}
	for path := range packages {
		if !imported[path] {
			unimported[path] = true
		}
	}

	report := func(what string, declared, dead map[string]bool, allowed map[string]string, fix string) {
		var keys []string
		for key := range dead {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if _, listed := allowed[key]; !listed {
				t.Errorf("%s %s %s", what, key, fix)
			}
		}
		for key := range allowed {
			switch {
			case !declared[key]:
				t.Errorf("%s %s is on the list and no longer exists: take it off", what, key)
			case !dead[key]:
				t.Errorf("%s %s is on the list and a program uses it: take it off", what, key)
			}
		}
	}
	report("name", declared, dead, allowed,
		"is used by no non-test file but its own declaration: delete it, move it into its package's _test.go, or list it here with the reason")
	report("package", packages, unimported, allowedPackages,
		"is imported by no non-test file outside itself: delete it, or list it here with the reason")
}

type exportedDecl struct {
	id        *ast.Ident
	qualified string   // Name, or Type.Method for a method
	node      ast.Node // the declaration the identifier's own occurrences are part of
}

// exportedDecls lists a file's exported top-level funcs, methods, types,
// vars and consts.
func exportedDecls(f *ast.File) (out []exportedDecl) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			q := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := receiverName(d.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				q = recv + "." + q
			}
			out = append(out, exportedDecl{d.Name, q, d})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, exportedDecl{s.Name, s.Name.Name, s})
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, exportedDecl{id, id.Name, s})
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName spells a method's receiver type without pointer or type
// parameters.
func receiverName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// occursOutside reports whether name occurs as an identifier in f outside
// the declaration node.
func occursOutside(f *ast.File, name string, decl ast.Node) (found bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if found || n == decl {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return true
	})
	return found
}
