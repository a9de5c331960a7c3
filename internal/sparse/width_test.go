package sparse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// An index is an int32, once (see the package doc). What keeps it one
// width is that nothing below the API declares an index slice of the
// other width: no struct field, parameter or result of type []int or
// [][]int in the non-test files of the packages that hold or pass
// indices, outside the list below — slices of ints that are not indices,
// each with its reason.
func TestOneIndexWidth(t *testing.T) {
	allowed := map[string]string{
		"sparse: spa.stamp":                  "generation counts: a pooled box outlives 2³¹ rows",
		"sparse: stampBox.stamp":             "the same counts, at rest in the pool",
		"sparse: flopSpans result":           "span bounds: workers+1 row cuts for ForSpans' int loops",
		"sparse: spansOver result":           "span bounds",
		"parallel: BalancedSpans result":     "span bounds",
		"parallel: ForSpans.bounds":          "span bounds",
		"algo: Graph.BFSLevelVector result":  "hop counts by vertex position, handed to the caller",
		"stream: StoreSnapshot.Epochs":       "the epoch vector: batch counters, one per shard",
		"stream: Store.OwnerSnapshot result": "the epoch vector",
		"stream: Store.PointPin result":      "the epoch vector",
		"stream: StoreStats.Epochs":          "the epoch vector",
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range []string{"sparse", "assoc", "keys", "graph", "algo", "stream", "parallel"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for %s (%v)", pkg, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			report := func(pos token.Pos, what string) {
				key := pkg + ": " + what
				if _, ok := allowed[key]; ok {
					used[key] = true
					return
				}
				t.Errorf("%s: %s is a []int; an index slice is []int32, and anything else belongs on this test's list with its reason", fset.Position(pos), what)
			}
			// fields reports the []int entries of a field list: owner.name
			// for a named one, "owner result" for one without a name.
			fields := func(owner string, list *ast.FieldList, unnamed string) {
				if list == nil {
					return
				}
				for _, fl := range list.List {
					if !intSlice(fl.Type) {
						continue
					}
					if len(fl.Names) == 0 {
						report(fl.Pos(), owner+" "+unnamed)
					}
					for _, n := range fl.Names {
						report(n.Pos(), owner+"."+n.Name)
					}
				}
			}
			signature := func(owner string, ft *ast.FuncType) {
				fields(owner, ft.Params, "parameter")
				fields(owner, ft.Results, "result")
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						fields(n.Name.Name, st.Fields, "embedded")
					}
				case *ast.FuncDecl:
					owner := n.Name.Name
					if n.Recv != nil && len(n.Recv.List) == 1 {
						owner = receiverName(n.Recv.List[0].Type) + "." + owner
					}
					signature(owner, n.Type)
				case *ast.FuncLit:
					signature("a func literal", n.Type)
				}
				return true
			})
		}
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("%s is on the list and no longer a []int: take it off", key)
		}
	}
}

// intSlice reports whether e is []int or [][]int.
func intSlice(e ast.Expr) bool {
	arr, ok := e.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	if id, ok := arr.Elt.(*ast.Ident); ok {
		return id.Name == "int"
	}
	return intSlice(arr.Elt)
}

// receiverName strips the pointer and the type parameters off a method's
// receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
