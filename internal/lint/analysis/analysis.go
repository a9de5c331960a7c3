// Package analysis is a dependency-free, API-compatible subset of
// golang.org/x/tools/go/analysis — just enough framework for the
// adjlint analyzers (Analyzer, Pass, Diagnostic, Reportf).
//
// The repo bakes in no third-party modules (the same constraint that
// produced internal/obs), so the x/tools module is not available to
// import; this package mirrors the shape of its exported API so every
// analyzer in internal/lint can be ported to the real framework by
// changing one import line. Facts, Requires-chaining, and suggested
// fixes are deliberately omitted: all adjlint analyzers are
// single-package AST+types passes.
//
// Suppression: a diagnostic whose line (or the line immediately above
// it) carries a comment of the form
//
//	//adjlint:ignore <analyzer-name> [reason]
//
// is dropped by Pass.Report before it reaches the driver. The
// annotation is how a human marks a discard or mutation as audited —
// the analyzers in this module require the name so one annotation
// cannot silence unrelated checks.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one named check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// //adjlint:ignore annotations. It must be a valid Go identifier.
	Name string
	// Doc is the help text; the first line is the one-line summary.
	Doc string
	// Run applies the analyzer to a package. It reports findings via
	// pass.Report/Reportf and returns an optional result (unused by
	// the adjlint driver, kept for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass hands an analyzer one type-checked package and collects its
// diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report emits one diagnostic. Drivers install the sink; analyzer
	// code should call the method wrappers below so the ignore
	// annotations are honored.
	Report func(Diagnostic)

	// ignoreIndex caches the per-file //adjlint:ignore lines, built
	// lazily on first report.
	ignoreIndex map[string]map[int]string
}

// Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (p *Pass) report(d Diagnostic) {
	if p.suppressed(d.Pos) {
		return
	}
	p.Report(d)
}

// suppressed reports whether an //adjlint:ignore annotation for this
// analyzer covers the diagnostic's line or the line above it.
func (p *Pass) suppressed(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	if p.ignoreIndex == nil {
		p.buildIgnoreIndex()
	}
	position := p.Fset.Position(pos)
	lines, ok := p.ignoreIndex[position.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		if names, ok := lines[line]; ok && ignoreCovers(names, p.Analyzer.Name) {
			return true
		}
	}
	return false
}

func (p *Pass) buildIgnoreIndex() {
	p.ignoreIndex = map[string]map[int]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//adjlint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				m := p.ignoreIndex[pos.Filename]
				if m == nil {
					m = map[int]string{}
					p.ignoreIndex[pos.Filename] = m
				}
				m[pos.Line] = strings.TrimSpace(rest)
			}
		}
	}
}

// ignoreCovers reports whether the annotation's analyzer-name list
// (the first whitespace-separated, comma-split token; the rest is the
// human reason) includes name.
func ignoreCovers(spec, name string) bool {
	fields := strings.Fields(spec)
	if len(fields) == 0 {
		return false // bare //adjlint:ignore names no analyzer: covers nothing
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n == name {
			return true
		}
	}
	return false
}
