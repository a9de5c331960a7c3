// Package core is the end-to-end adjacency-construction service — the
// paper's primary contribution packaged as one operation. Given a pair
// of incidence arrays (from a database table, a TSV dump, or a graph),
// it resolves the requested ⊕.⊗ operator pair, checks the Theorem II.1
// conditions up front (refusing, or warning, when the algebra cannot
// guarantee an adjacency array), computes A = Eoutᵀ ⊕.⊗ Ein on the
// selected backend (the sparse engine or the dense Definition I.3
// oracle), and optionally validates the result against Definition I.5.
package core

import (
	"fmt"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// Backend selects the construction engine.
type Backend string

// The zero value is the sparse engine (assoc.Correlate), serial or
// parallel as Request.Workers says; BackendDense is the literal
// Definition I.3 (verification).
const BackendDense Backend = "dense"

// Request describes one construction.
type Request struct {
	// Eout and Ein are the source/target incidence arrays (rows = edge
	// keys, columns = vertices).
	Eout, Ein *assoc.Array[float64]
	// Semiring is the registry name of the operator pair, e.g. "+.*".
	Semiring string
	// Backend defaults to the sparse engine.
	Backend Backend
	// Workers schedules the engine as assoc.MulOptions does (0 or 1
	// serial, < 0 GOMAXPROCS).
	Workers int
	// SkipConditionCheck constructs even when the algebra violates the
	// Theorem II.1 conditions (useful for demonstrations; the Result
	// then carries the violation).
	SkipConditionCheck bool
	// Validate reconstructs the graph from the incidence arrays and
	// checks Definition I.5 on the result. Requires well-formed
	// incidence arrays (exactly one source and target per edge row).
	Validate bool
}

// Result is the outcome of a construction.
type Result struct {
	// Adjacency is A = Eoutᵀ ⊕.⊗ Ein.
	Adjacency *assoc.Array[float64]
	// Ops is the resolved operator pair.
	Ops semiring.Ops[float64]
	// Report is the Theorem II.1 condition analysis on the pair's
	// canonical sample plus the distinct values present in the inputs.
	Report semiring.Report
	// Violation, when the conditions fail, demonstrates the failure on
	// a concrete gadget graph (nil otherwise).
	Violation *graph.Violation[float64]
	// Elapsed is the wall-clock construction time (excluding checks).
	Elapsed time.Duration
}

// Build runs the construction pipeline.
func Build(req Request) (*Result, error) {
	if req.Eout == nil || req.Ein == nil {
		return nil, fmt.Errorf("core: both incidence arrays are required")
	}
	if req.Backend != "" && req.Backend != BackendDense {
		return nil, fmt.Errorf("core: unknown backend %q (known: \"\" — the sparse engine — and %q)", req.Backend, BackendDense)
	}
	entry, ok := semiring.Lookup(req.Semiring)
	if !ok {
		return nil, fmt.Errorf("core: unknown operator pair %q (known: %v)", req.Semiring, semiring.Names())
	}
	ops := entry.Ops

	// Condition analysis over the canonical domain sample extended with
	// the values actually present in the data.
	sample := append([]float64{}, entry.Sample...)
	sample = appendDataValues(sample, req.Eout, 64)
	sample = appendDataValues(sample, req.Ein, 64)
	report := semiring.Check(ops, sample, value.FormatFloat)

	res := &Result{Ops: ops, Report: report}
	if !report.TheoremII1() {
		res.Violation = graph.FindViolation(ops, sample)
		if !req.SkipConditionCheck {
			detail := "conditions fail on the sampled domain"
			if res.Violation != nil {
				detail = res.Violation.String()
			}
			return res, fmt.Errorf("core: %s cannot guarantee an adjacency array: %s", ops.Name, detail)
		}
	}

	start := time.Now()
	var a *assoc.Array[float64]
	var err error
	if req.Backend == BackendDense {
		a, err = graph.AdjacencyDense(req.Eout, req.Ein, ops)
	} else {
		a, err = graph.Adjacency(req.Eout, req.Ein, ops, assoc.MulOptions{Workers: req.Workers})
	}
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Adjacency = a

	if req.Validate {
		g, err := graph.GraphFromIncidence(req.Eout, req.Ein)
		if err != nil {
			return res, fmt.Errorf("core: cannot validate — incidence arrays not graph-shaped: %w", err)
		}
		full, err := a.Reindex(g.OutVertices(), g.InVertices())
		if err != nil {
			return res, fmt.Errorf("core: result keys inconsistent with graph: %w", err)
		}
		if err := graph.IsAdjacencyOf(full, g, ops.IsZero); err != nil {
			return res, fmt.Errorf("core: validation failed: %w", err)
		}
	}
	return res, nil
}

// appendDataValues extends sample with the distinct values stored in a,
// in row-major order, until it holds max of them, so condition checks
// cover the data actually being multiplied. Data is mostly runs of one
// value (unit weights): a value equal to the one before it was already
// decided and is skipped without a lookup.
func appendDataValues(sample []float64, a *assoc.Array[float64], max int) []float64 {
	seen := make(map[float64]bool, len(sample))
	for _, v := range sample {
		seen[v] = true
	}
	_, _, vals := a.Matrix().Parts()
	for i, v := range vals {
		if len(seen) >= max {
			break
		}
		if (i > 0 && v == vals[i-1]) || seen[v] {
			continue
		}
		seen[v] = true
		sample = append(sample, v)
	}
	return sample
}
