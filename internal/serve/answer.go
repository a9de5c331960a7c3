package serve

import (
	"bytes"
	"net/http"
	"strconv"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/stream"
)

// The one way a read answer is written. Every answer is a JSON object
// whose fields appear in byte-wise sorted order — the order
// encoding/json gave the map[string]any these answers used to be — and
// whose per-vertex entries follow the graph's vertex key set, which is
// the same order. So each shape below is a fixed sequence of appends,
// and the kernels' dense vectors go to the socket without passing
// through a map.

// writeAnswer renders one read answer into a pooled buffer and writes it
// in one shot with an explicit Content-Length and encoding/json's
// trailing newline. A failed network write is the client's disconnect;
// it is counted, not retried.
func (s *Server) writeAnswer(w http.ResponseWriter, render func(b []byte) []byte) {
	buf := s.buffers.Get().(*bytes.Buffer)
	buf.Reset()
	defer s.buffers.Put(buf)
	buf.Write(append(render(buf.AvailableBuffer()), '\n'))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.met.writeErrors.Inc()
	}
}

// stamp is what an answer carries besides its own fields, and the one
// thing that tells a standalone answer from the same answer inside a
// /batch: standalone, the consistency token — the pinned epoch vector
// and its scalar sum (every field of one response reflects shard i at
// exactly epochs[i]), plus "exact" on whole-graph answers; in a batch,
// the op's name, the token being the batch's. Either sorts at one place
// among a shape's fields, so a shape is written once and handed its
// stamp.
type stamp struct {
	op     string // a /batch op's name; "" marks a standalone answer
	epochs []int
	whole  bool // a whole-graph answer: carries exact
	exact  bool
}

func wholeStamp(epochs []int, exact bool) stamp {
	return stamp{epochs: epochs, whole: true, exact: exact}
}

// appendTo writes the stamp's fields, each followed by a comma.
func (st stamp) appendTo(b []byte) []byte {
	if st.op != "" {
		b = append(b, `"op":`...)
		b = appendJSONString(b, st.op)
		return append(b, ',')
	}
	sum := 0
	for _, e := range st.epochs {
		sum += e
	}
	b = append(b, `"epoch":`...)
	b = strconv.AppendInt(b, int64(sum), 10)
	b = append(b, `,"epochs":[`...)
	for i, e := range st.epochs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	b = append(b, `],`...)
	if st.whole {
		b = append(b, `"exact":`...)
		b = strconv.AppendBool(b, st.exact)
		b = append(b, ',')
	}
	return b
}

// appendAt answers one cell: dst, stamp, src, stored, value.
func appendAt(b []byte, st stamp, pt stream.PointSnapshot[float64], src, dst string) []byte {
	val, stored := pt.At(src, dst)
	b = append(b, `{"dst":`...)
	b = appendJSONString(b, dst)
	b = append(b, ',')
	b = st.appendTo(b)
	b = append(b, `"src":`...)
	b = appendJSONString(b, src)
	b = append(b, `,"stored":`...)
	b = strconv.AppendBool(b, stored)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, val)
	return append(b, '}')
}

// appendRow answers one adjacency row — stamp, row, src — straight from
// the pinned shard's CSR row and column key set, merged with what the
// log's unfolded suffix adds to it; a source that holds no row has the
// empty one.
func appendRow(b []byte, st stamp, pt stream.PointSnapshot[float64], src string) []byte {
	b = append(b, '{')
	b = st.appendTo(b)
	b = append(b, `"row":{`...)
	open := len(b)
	pt.Row(src, func(dst string, v float64) {
		if len(b) > open {
			b = append(b, ',')
		}
		b = appendJSONString(b, dst)
		b = append(b, ':')
		b = appendJSONFloat(b, v)
	})
	b = append(b, `},"src":`...)
	b = appendJSONString(b, src)
	return append(b, '}')
}

// appendTriples answers the first limit stored entries in row-major key
// order: stamp, limit, total, triples (col, row, val each), truncated.
// The sweep stops at the limit, so ?limit=1 on a large graph is O(1).
func appendTriples(b []byte, st stamp, adj *assoc.Array[float64], limit int) []byte {
	total := adj.NNZ()
	b = append(b, '{')
	b = st.appendTo(b)
	b = append(b, `"limit":`...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"triples":[`...)
	n := 0
	adj.IterateUntil(func(rk, ck string, v float64) bool {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"col":`...)
		b = appendJSONString(b, ck)
		b = append(b, `,"row":`...)
		b = appendJSONString(b, rk)
		b = append(b, `,"val":`...)
		b = appendJSONFloat(b, v)
		b = append(b, '}')
		n++
		return n < limit
	})
	b = append(b, `],"truncated":`...)
	b = strconv.AppendBool(b, total > n)
	return append(b, '}')
}

// result is a whole-graph kernel's answer, still in the kernel's vector
// form: it appends the JSON value of the "result" field.
type result func(b []byte) []byte

// appendResult answers a whole-graph query: stamp, result.
func appendResult(b []byte, st stamp, res result) []byte {
	b = append(b, '{')
	b = st.appendTo(b)
	b = append(b, `"result":`...)
	b = res(b)
	return append(b, '}')
}

// sourceKernels are the single-source queries, by the name they have as
// an endpoint and as a /batch op.
var sourceKernels = map[string]func(g *algo.Graph, src string) (result, error){
	"bfs": bfsAnswer, "sssp": ssspAnswer, "widest": widestAnswer,
}

func bfsAnswer(g *algo.Graph, src string) (result, error) {
	level, err := g.BFSLevelVector(src)
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte {
		b = append(b, '{')
		open := len(b)
		for i, l := range level {
			if l < 0 {
				continue
			}
			if len(b) > open {
				b = append(b, ',')
			}
			b = appendJSONString(b, g.Vertices().Key(i))
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(l), 10)
		}
		return append(b, '}')
	}, nil
}

func ssspAnswer(g *algo.Graph, src string) (result, error) {
	dist, has, err := g.SSSPVector(src)
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte { return appendVector(b, g.Vertices(), dist, has) }, nil
}

func widestAnswer(g *algo.Graph, src string) (result, error) {
	width, has, err := g.WidestPathVector(src)
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte { return appendVector(b, g.Vertices(), width, has) }, nil
}

func trianglesAnswer(g *algo.Graph) (result, error) {
	n, err := g.TriangleCount()
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte { return strconv.AppendInt(b, int64(n), 10) }, nil
}

func pageRankAnswer(g *algo.Graph, damping, tol float64, iters int) (result, error) {
	rank, used, err := g.PageRankVector(damping, tol, iters)
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte {
		b = append(b, `{"iterations":`...)
		b = strconv.AppendInt(b, int64(used), 10)
		b = append(b, `,"rank":`...)
		b = appendVector(b, g.Vertices(), rank, nil)
		return append(b, '}')
	}, nil
}

// appendVector writes a kernel's dense vector as the object of its
// present entries, keyed by vertex, in key order; a nil has means every
// vertex is present.
func appendVector(b []byte, verts *keys.Set, val []float64, has []bool) []byte {
	b = append(b, '{')
	open := len(b)
	for i, v := range val {
		if has != nil && !has[i] {
			continue
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = appendJSONString(b, verts.Key(i))
		b = append(b, ':')
		b = appendJSONFloat(b, v)
	}
	return append(b, '}')
}
