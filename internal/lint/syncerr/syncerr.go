// Package syncerr flags discarded error returns from durability-
// critical calls — Sync, SyncDir, Close, Flush, and Truncate on
// *os.File, on the iofault.File/FS every durable write goes through,
// and on the WAL/stream writer types — inside the packages that own
// the durable write path (internal/wal, internal/stream, cmd/crashtest).
//
// A WAL that drops an fsync error has silently voided its durability
// contract: the caller was acknowledged, the kernel reported the data
// may not be on stable storage, and nobody will ever know. Every
// discard on the write path must either check the error or carry an
// //adjlint:ignore syncerr annotation stating why the discard is sound
// (e.g. best-effort cleanup on a path already returning an earlier
// error).
//
// Discard spellings detected: a bare expression statement, a defer or
// go statement, and an assignment whose corresponding results are all
// blank.
package syncerr

import (
	"go/ast"
	"go/types"
	"strings"

	"adjarray/internal/lint/analysis"
	"adjarray/internal/lint/lintutil"
)

// DefaultScope lists the package-path suffixes the analyzer gates:
// the durable write path. Other packages' Close discards (read-side
// CLIs, tests) are not durability bugs and stay out of scope.
var DefaultScope = []string{"internal/wal", "internal/stream", "cmd/crashtest"}

// methodNames are the durability-bearing methods whose error return
// must not be discarded.
var methodNames = map[string]bool{"Sync": true, "SyncDir": true, "Close": true, "Flush": true, "Truncate": true}

// Analyzer is the syncerr pass over the default scope.
var Analyzer = New(DefaultScope...)

// New builds a syncerr analyzer scoped to packages whose import path
// ends with one of the given suffixes (tests use this to point the
// analyzer at fixture packages).
func New(scope ...string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "syncerr",
		Doc:  "flag discarded Sync/SyncDir/Close/Flush/Truncate errors on the durable write path (durability silently voided otherwise)",
		Run: func(pass *analysis.Pass) (any, error) {
			return run(pass, scope)
		},
	}
}

func run(pass *analysis.Pass, scope []string) (any, error) {
	if !inScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}
	for _, f := range lintutil.NonTestFiles(pass.Fset, pass.Files) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
					check(pass, call, "discarded")
				}
			case *ast.DeferStmt:
				check(pass, stmt.Call, "discarded by defer")
			case *ast.GoStmt:
				check(pass, stmt.Call, "discarded by go statement")
			case *ast.AssignStmt:
				// x, _ = f() discards selectively; flag only when every
				// assigned position is blank (a lone call on the RHS).
				if len(stmt.Rhs) != 1 || !allBlank(stmt.Lhs) {
					return true
				}
				if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok {
					check(pass, call, "assigned to blank")
				}
			}
			return true
		})
	}
	return nil, nil
}

func inScope(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) || strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// check reports the call if it is a durability-bearing method whose
// error result is being discarded.
func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil || !methodNames[fn.Name()] || !returnsError(fn) {
		return
	}
	rt := lintutil.ReceiverType(fn)
	if rt == nil {
		return
	}
	pkgPath, typeName := lintutil.NamedPath(rt)
	if !durabilityBearing(pkgPath, typeName) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s error from (%s.%s).%s: a dropped %s error silently voids durability — check it or annotate //adjlint:ignore syncerr with a reason",
		how, pkgPath, typeName, fn.Name(), strings.ToLower(fn.Name()))
}

// durabilityBearing reports whether methods on this receiver type are
// on the durable write path: os.File itself, the iofault File and FS
// the WAL and the store write through, and every exported type of the
// WAL and stream packages (writers, durable views, sharded views,
// checkpoint stores).
func durabilityBearing(pkgPath, typeName string) bool {
	switch pkgPath {
	case "os":
		return typeName == "File"
	case "adjarray/internal/iofault", "adjarray/internal/wal", "adjarray/internal/stream":
		return true
	}
	return false
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
