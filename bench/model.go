package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// model is the benchmark's own picture of the adjacency array the
// program under test should hold, kept as a plain edge-multiplicity
// map: under +.* with unit weights A(x,y) is the number of edges x→y.
// It shares no code with the repository, so an answer that agrees with
// it agrees with the edge list, not with another path through the same
// kernels.
type model struct {
	rows  map[string]map[string]float64
	verts map[string]struct{}
	edges int
}

func newModel() *model {
	return &model{rows: map[string]map[string]float64{}, verts: map[string]struct{}{}}
}

func (m *model) add(es []edge) {
	for _, e := range es {
		row := m.rows[e.Src]
		if row == nil {
			row = map[string]float64{}
			m.rows[e.Src] = row
		}
		row[e.Dst]++
		m.verts[e.Src] = struct{}{}
		m.verts[e.Dst] = struct{}{}
	}
	m.edges += len(es)
}

func (m *model) at(src, dst string) (float64, bool) {
	v, ok := m.rows[src][dst]
	return v, ok
}

// nnz is the number of distinct (src,dst) pairs.
func (m *model) nnz() int {
	n := 0
	for _, row := range m.rows {
		n += len(row)
	}
	return n
}

// bfs is a plain queue BFS over the multiplicity map's pattern.
func (m *model) bfs(src string) map[string]int {
	level := map[string]int{src: 0}
	queue := []string{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for w := range m.rows[v] {
			if _, seen := level[w]; !seen {
				level[w] = level[v] + 1
				//adjlint:ignore detfold BFS levels do not depend on the order neighbours are queued in
				queue = append(queue, w)
			}
		}
	}
	return level
}

// maxOfMin is the max.min oracle of the construct workload: A(x,y) is
// the largest bottleneck min(out,in) over the parallel edges x→y.
func maxOfMin(in *constructInput) map[edge]float64 {
	out := make(map[edge]float64, len(in.Edges))
	for i, e := range in.Edges {
		v := math.Min(in.WOut[i], in.WIn[i])
		if cur, ok := out[e]; !ok || v > cur {
			out[e] = v
		}
	}
	return out
}

// multiplicity is the +.* oracle of the construct workload.
func multiplicity(in *constructInput) map[edge]float64 {
	out := make(map[edge]float64, len(in.Edges))
	for _, e := range in.Edges {
		out[e]++
	}
	return out
}

// verifier checks answers against a model. exact says the model is the
// whole truth (query_static); otherwise the graph has grown past it
// (mixed_rw) and answers may only exceed it.
type verifier struct {
	m     *model
	exact bool
}

type atAnswer struct {
	Value  any  `json:"value"`
	Stored bool `json:"stored"`
}

func (a atAnswer) matches(want float64, stored bool) bool {
	if a.Stored != stored {
		return false
	}
	if !stored {
		return true
	}
	got, ok := a.Value.(float64)
	return ok && got == want
}

// check verifies one response body; a non-nil error fails the op.
func (v *verifier) check(rq *request, body []byte) error {
	switch rq.Kind {
	case opIngest:
		var ans struct{ Appended int }
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		if ans.Appended != len(rq.Edges) {
			return fmt.Errorf("appended %d of %d edges", ans.Appended, len(rq.Edges))
		}
	case opAt:
		var ans atAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		return v.checkAt(rq, ans)
	case opRow:
		var ans struct{ Row map[string]float64 }
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		return v.checkRow(rq, ans.Row)
	case opBFS:
		if !rq.Check {
			return nonEmpty(body)
		}
		var ans struct{ Result map[string]int }
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		return v.checkBFS(rq, ans.Result)
	case opSSSP:
		return nonEmpty(body)
	case opPageRank:
		if !rq.Check {
			return nonEmpty(body)
		}
		var ans struct {
			Result struct {
				Rank       map[string]float64
				Iterations int
			}
		}
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		return v.checkPageRank(ans.Result.Rank)
	case opBatch:
		var ans struct {
			Count   int
			Results []struct {
				atAnswer
				Op    string
				Error string
			}
		}
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		if ans.Count != len(rq.Sub) || len(ans.Results) != len(rq.Sub) {
			return fmt.Errorf("batch answered %d of %d ops", ans.Count, len(rq.Sub))
		}
		for i := range rq.Sub {
			res := ans.Results[i]
			if res.Error != "" {
				return fmt.Errorf("batch op %d (%s): %s", i, res.Op, res.Error)
			}
			if rq.Sub[i].Kind == opAt {
				if err := v.checkAt(&rq.Sub[i], res.atAnswer); err != nil {
					return fmt.Errorf("batch op %d: %w", i, err)
				}
			}
		}
	}
	return nil
}

func nonEmpty(body []byte) error {
	if len(body) < 2 || body[0] != '{' {
		return fmt.Errorf("answer is not a JSON object: %.40q", body)
	}
	return nil
}

func (v *verifier) checkAt(rq *request, ans atAnswer) error {
	want, stored := v.m.at(rq.Src, rq.Dst)
	if rq.ReadYourWrite {
		// The probe edge's destination is touched by that edge alone.
		want, stored = 1, true
	} else if !v.exact {
		return nil
	}
	if !ans.matches(want, stored) {
		return fmt.Errorf("/at %s→%s answered value=%v stored=%v, model says value=%v stored=%v",
			rq.Src, rq.Dst, ans.Value, ans.Stored, want, stored)
	}
	return nil
}

func (v *verifier) checkRow(rq *request, got map[string]float64) error {
	want := v.m.rows[rq.Src]
	if v.exact && len(got) != len(want) {
		return fmt.Errorf("/row %s has %d entries, model has %d", rq.Src, len(got), len(want))
	}
	for dst, w := range want {
		if g, ok := got[dst]; !ok || g < w || (v.exact && g != w) {
			return fmt.Errorf("/row %s: entry %s is %v (present=%v), model says %v", rq.Src, dst, g, ok, w)
		}
	}
	return nil
}

func (v *verifier) checkBFS(rq *request, got map[string]int) error {
	if l, ok := got[rq.Src]; !ok || l != 0 {
		return fmt.Errorf("/bfs %s: source level is %d (present=%v)", rq.Src, l, ok)
	}
	if !v.exact {
		return nil
	}
	want := v.m.bfs(rq.Src)
	if len(got) != len(want) {
		return fmt.Errorf("/bfs %s reached %d vertices, oracle reached %d", rq.Src, len(got), len(want))
	}
	for w, l := range want {
		if got[w] != l {
			return fmt.Errorf("/bfs %s: level of %s is %d, oracle says %d", rq.Src, w, got[w], l)
		}
	}
	return nil
}

func (v *verifier) checkPageRank(rank map[string]float64) error {
	if len(rank) < len(v.m.verts) || (v.exact && len(rank) != len(v.m.verts)) {
		return fmt.Errorf("/pagerank ranked %d vertices, model has %d", len(rank), len(v.m.verts))
	}
	sum := 0.0
	for _, r := range rank {
		//adjlint:ignore detfold compared with a tolerance a million times the rounding an order can cause
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("/pagerank ranks sum to %v", sum)
	}
	return nil
}

// finalSamples is how many cells the end-of-run check reads back.
const finalSamples = 64

// checkFinal verifies the state a server holds once the script is over
// (and again after each restart): the edge count equals what was
// acknowledged, and finalSamples of cells, taken evenly across them,
// hold exactly the model's multiplicity. lookup asks the server for one
// cell.
func checkFinal(m *model, cells []edge, serverEdges int, lookup func(src, dst string) (atAnswer, error)) error {
	if serverEdges != m.edges {
		return fmt.Errorf("server holds %d edges, %d were acknowledged", serverEdges, m.edges)
	}
	step := max(len(cells)/finalSamples, 1)
	for i := 0; i < len(cells); i += step {
		c := cells[i]
		want, stored := m.at(c.Src, c.Dst)
		ans, err := lookup(c.Src, c.Dst)
		if err != nil {
			return err
		}
		if !ans.matches(want, stored) {
			return fmt.Errorf("cell %s→%s reads value=%v stored=%v after the run, model says value=%v stored=%v",
				c.Src, c.Dst, ans.Value, ans.Stored, want, stored)
		}
	}
	return nil
}
