// Package shadow is adjlint's port of the x/tools shadow pass. The
// original cannot be imported (this module bakes in no third-party
// dependencies), so this is a deliberately CONSERVATIVE
// reimplementation of its highest-signal core on plain AST+types:
// every declaration it flags shadows a still-live outer variable under
// the original's definition, but it finds strictly fewer instances.
package shadow

import (
	"go/ast"
	"go/token"
	"go/types"

	"adjarray/internal/lint/analysis"
	"adjarray/internal/lint/lintutil"
)

// Analyzer flags an inner short-variable declaration that shadows a
// function-local variable of identical type when the outer variable is
// still used after the point of the shadowing declaration — the
// configuration where a write to the wrong one silently diverges
// (x/tools' shadow heuristic, minus its span refinements).
var Analyzer = &analysis.Analyzer{
	Name: "shadow",
	Doc:  "flag inner declarations that shadow a still-live outer variable of the same type",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range lintutil.NonTestFiles(pass.Fset, pass.Files) {
		for id, obj := range pass.TypesInfo.Defs {
			if obj == nil || id.Name == "_" || id.Name == "err" {
				// err shadowing is idiomatic at every `if err := …` site;
				// the original special-cases it via span heuristics.
				continue
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() || !inFile(pass, f, id.Pos()) || !isShortDecl(pass, f, id) {
				continue
			}
			checkShadow(pass, f, id, v)
		}
	}
	return nil, nil
}

func inFile(pass *analysis.Pass, f *ast.File, pos token.Pos) bool {
	return f.FileStart <= pos && pos < f.FileEnd
}

// isShortDecl reports whether id is declared by := (not a func param,
// range variable shadowing is the same class but param shadowing is
// deliberate API shape).
func isShortDecl(pass *analysis.Pass, f *ast.File, id *ast.Ident) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || found {
			return !found
		}
		for _, lhs := range as.Lhs {
			if lhs == ast.Expr(id) {
				found = true
			}
		}
		return !found
	})
	return found
}

func checkShadow(pass *analysis.Pass, f *ast.File, id *ast.Ident, inner *types.Var) {
	scope := pass.Pkg.Scope().Innermost(id.Pos())
	if scope == nil {
		return
	}
	// Look up the name OUTSIDE the innermost scope: a hit that is a
	// function-local variable declared earlier is the shadowed one.
	_, outerObj := scope.Parent().LookupParent(id.Name, id.Pos())
	outer, ok := outerObj.(*types.Var)
	if !ok || outer == inner || outer.IsField() {
		return
	}
	if outer.Parent() == pass.Pkg.Scope() || outer.Parent() == types.Universe {
		return // package-level shadowing is ubiquitous and deliberate
	}
	if !types.Identical(outer.Type(), inner.Type()) {
		return
	}
	// The outer variable must still be used after the shadowing
	// declaration for the shadow to be able to bite.
	usedAfter := false
	ast.Inspect(f, func(n ast.Node) bool {
		if usedAfter {
			return false
		}
		u, ok := n.(*ast.Ident)
		if ok && u.Pos() > id.Pos() && pass.TypesInfo.Uses[u] == outer {
			usedAfter = true
		}
		return true
	})
	if usedAfter {
		pass.Reportf(id.Pos(), "declaration of %q shadows declaration at line %d; the outer variable is still used after this point",
			id.Name, pass.Fset.Position(outer.Pos()).Line)
	}
}
