// Package lint assembles the adjlint analyzer suite — the static half
// of the repo's exactness and durability invariants (the dynamic half
// is internal/conformance). Each analyzer encodes a bug class a past
// PR had to find by hand:
//
//	detfold     nondeterministic ⊕-folds over map iteration (PR 4's
//	            PageRank dangling-sum)
//	syncerr     discarded fsync/close errors on the durable write path
//	            (PR 6's WAL)
//	poolleak    sync.Pool scratch escaping or aliased after Put (PR 5's
//	            kernel scratch)
//	cowmut      in-place mutation of snapshot-shared //adjlint:cow
//	            slices (PR 5/7's copy-on-write id→position arrays)
//
// plus ports of the x/tools nilness, shadow, and unusedwrite passes
// (see internal/lint/extra for why they are local reimplementations).
package lint

import (
	"adjarray/internal/lint/analysis"
	"adjarray/internal/lint/cowmut"
	"adjarray/internal/lint/detfold"
	"adjarray/internal/lint/extra"
	"adjarray/internal/lint/loader"
	"adjarray/internal/lint/poolleak"
	"adjarray/internal/lint/syncerr"
)

// Analyzers returns the full adjlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detfold.Analyzer,
		syncerr.Analyzer,
		poolleak.Analyzer,
		cowmut.Analyzer,
		extra.Nilness,
		extra.Shadow,
		extra.Unusedwrite,
	}
}

// Finding is one diagnostic attributed to its analyzer, with the
// position already rendered.
type Finding struct {
	Analyzer string
	Position string // file:line:col
	Message  string
}

// RunPackage applies the given analyzers to one loaded package.
func RunPackage(p *loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := p.Fset.Position(d.Pos)
			out = append(out, Finding{
				Analyzer: a.Name,
				Position: pos.String(),
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return out, nil
}
