package conformance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"adjarray/internal/assoc"
	"adjarray/internal/value"
)

// Edge is one directed multigraph edge of a conformance instance: key k,
// endpoints, and the two incidence entry values Eout(k,Src) and
// Ein(k,Dst). Keys are unique and non-empty; values are non-Zero under
// the instance's operator pair (Definition I.4).
type Edge struct {
	Key, Src, Dst string
	Out, In       float64
}

// Instance is one differential-testing input: an edge list in ascending
// key order plus the batch split points the incremental path replays it
// with. The zero value is the empty instance.
type Instance struct {
	// Name identifies the generator arm that produced the instance.
	Name string
	// Edges is the edge list, sorted by strictly increasing Key.
	Edges []Edge
	// Splits are cut points in (0, len(Edges)): the stream path appends
	// Edges[0:s1), Edges[s1:s2), …, Edges[sn:len) as separate batches
	// with a read between batches (the most folds an instance can take).
	// Empty means one batch.
	Splits []int
}

// normalize sorts edges by key, drops duplicate keys (keeping the first),
// and clamps splits into strictly-increasing interior cut points.
func (in *Instance) normalize() {
	sort.SliceStable(in.Edges, func(i, j int) bool { return in.Edges[i].Key < in.Edges[j].Key })
	out := in.Edges[:0]
	for i, e := range in.Edges {
		if e.Key == "" {
			continue // the stream path would auto-assign a different key
		}
		if i > 0 && len(out) > 0 && e.Key == out[len(out)-1].Key {
			continue
		}
		out = append(out, e)
	}
	in.Edges = out
	in.Splits = clampSplits(in.Splits, len(in.Edges))
}

// clampSplits filters cut points to strictly-increasing values inside
// (0, n).
func clampSplits(splits []int, n int) []int {
	var out []int
	for _, s := range splits {
		if s > 0 && s < n && (len(out) == 0 || s > out[len(out)-1]) {
			out = append(out, s)
		}
	}
	return out
}

// Incidence builds the instance's source and target incidence arrays
// (rows = edge keys, columns = vertices).
func (in Instance) Incidence() (eout, ein *assoc.Array[float64]) {
	outT := make([]assoc.Triple[float64], len(in.Edges))
	inT := make([]assoc.Triple[float64], len(in.Edges))
	for i, e := range in.Edges {
		outT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out}
		inT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In}
	}
	return assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil)
}

// Encode renders the instance as a line-oriented text artifact: one
// quoted tab-separated edge per line, preceded by name and splits
// headers. The format round-trips through the tests' DecodeInstance, so
// a CI artifact can be replayed locally.
func (in Instance) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", strconv.Quote(in.Name))
	if len(in.Splits) > 0 {
		b.WriteString("splits")
		for _, s := range in.Splits {
			fmt.Fprintf(&b, " %d", s)
		}
		b.WriteByte('\n')
	}
	for _, e := range in.Edges {
		fmt.Fprintf(&b, "edge %s %s %s %s %s\n",
			strconv.Quote(e.Key), strconv.Quote(e.Src), strconv.Quote(e.Dst),
			strconv.Quote(value.FormatFloat(e.Out)), strconv.Quote(value.FormatFloat(e.In)))
	}
	return []byte(b.String())
}
