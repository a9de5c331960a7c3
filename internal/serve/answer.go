package serve

import (
	"net/http"
	"strconv"

	"adjarray/internal/algo"
	"adjarray/internal/keys"
	"adjarray/internal/stream"
)

// The one way a read answer is written. Every answer is a JSON object
// whose fields appear in byte-wise sorted order — the order
// encoding/json gave the map[string]any these answers used to be — and
// whose per-vertex entries follow the graph's vertex key set, which is
// the same order. So each shape below is a fixed sequence of appends,
// and the kernels' dense vectors go to the socket a chunk at a time,
// without passing through a map or being held whole.

// chunk is the most of an answer held before it is written. Renderers
// spill after each entry, so no write carries more than one chunk and
// one entry, and an answer's memory does not grow with its length.
const chunk = 32 << 10

// answer is a read answer on its way to the socket. A renderer appends
// to the slice it is handed, as any append encoder does, and hands it to
// spill after each entry; spill writes it to w once it passes one chunk.
// The first failed write ends the answer: nothing more is written, and a
// renderer stops at its next spill.
type answer struct {
	w    http.ResponseWriter
	held []byte // the pooled chunk, between answers
	sent bool   // part of the answer is written, so it has no Content-Length
	err  error  // the write that failed
}

// spill writes b once it passes one chunk and returns what is still held.
func (a *answer) spill(b []byte) []byte {
	if len(b) > chunk {
		a.write(b)
		b = b[:0]
	}
	return b
}

// write sends b, unless an earlier write failed.
func (a *answer) write(b []byte) {
	if a.err == nil {
		_, a.err = a.w.Write(b)
	}
	a.sent = true
}

// writeAnswer renders one read answer, with encoding/json's trailing
// newline, through a pooled chunk. An answer that fits one chunk goes out
// in one write with an explicit Content-Length; a longer one goes out a
// chunk at a time, with chunked transfer encoding and the same bytes. A
// failed network write is the client's disconnect; it is counted once,
// not retried.
func (s *Server) writeAnswer(w http.ResponseWriter, render func(a *answer, b []byte) []byte) {
	a := s.answers.Get().(*answer)
	a.w = w
	w.Header().Set("Content-Type", "application/json")
	b := append(render(a, a.held[:0]), '\n')
	if !a.sent && len(b) <= chunk {
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	}
	a.write(b)
	if a.err != nil {
		s.met.writeErrors.Inc()
	}
	if cap(b) <= 2*chunk { // else one outsized entry grew it: not pooled
		*a = answer{held: b[:0]}
		s.answers.Put(a)
	}
}

// stamp is what an answer carries besides its own fields, and the one
// thing that tells a standalone answer from the same answer inside a
// /batch: standalone, the consistency token — the pinned epoch vector
// and its scalar sum (every field of one response reflects shard i at
// exactly epochs[i]); in a batch, the op's name, the token being the
// batch's. Either sorts at one place among a shape's fields, so a shape
// is written once and handed its stamp.
type stamp struct {
	op     string // a /batch op's name; "" marks a standalone answer
	epochs []int
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
	return append(b, `],`...)
}

// appendAt answers one cell: dst, stamp, src, stored, value.
func appendAt(_ *answer, b []byte, st stamp, pt stream.PointSnapshot[float64], op batchOp) []byte {
	val, stored := pt.At(op.Src, op.Dst)
	b = append(b, `{"dst":`...)
	b = appendJSONString(b, op.Dst)
	b = append(b, ',')
	b = st.appendTo(b)
	b = append(b, `"src":`...)
	b = appendJSONString(b, op.Src)
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
func appendRow(a *answer, b []byte, st stamp, pt stream.PointSnapshot[float64], op batchOp) []byte {
	b = append(b, '{')
	b = st.appendTo(b)
	b = append(b, `"row":{`...)
	n := 0
	pt.Row(op.Src, func(dst string, v float64) {
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = appendJSONString(b, dst)
		b = append(b, ':')
		b = appendJSONFloat(b, v)
		b = a.spill(b) // Row cannot stop early; after a failed write this drops what is held
	})
	b = append(b, `},"src":`...)
	b = appendJSONString(b, op.Src)
	return append(b, '}')
}

// appendTriples answers the first limit stored entries in row-major key
// order: stamp, limit, total, triples (col, row, val each), truncated.
// The sweep stops at the limit, so ?limit=1 on a large graph is O(1).
func appendTriples(a *answer, b []byte, st stamp, g *algo.Graph, limit int) []byte {
	total := g.NumEdges()
	b = append(b, '{')
	b = st.appendTo(b)
	b = append(b, `"limit":`...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"triples":[`...)
	n := 0
	g.IterateUntil(func(rk, ck string, v float64) bool {
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
		b = a.spill(b)
		return a.err == nil && n < limit
	})
	b = append(b, `],"truncated":`...)
	b = strconv.AppendBool(b, total > n)
	return append(b, '}')
}

// result is a whole-graph kernel's answer, still in the kernel's vector
// form: it appends the JSON value of the "result" field.
type result func(a *answer, b []byte) []byte

// appendResult answers a whole-graph query: stamp, result.
func appendResult(a *answer, b []byte, st stamp, res result) []byte {
	b = append(b, '{')
	b = st.appendTo(b)
	b = append(b, `"result":`...)
	b = res(a, b)
	return append(b, '}')
}

func bfsAnswer(g *algo.Graph, op batchOp) (result, error) {
	level, err := g.BFSLevelVector(op.Src)
	if err != nil {
		return nil, err
	}
	return func(a *answer, b []byte) []byte {
		b = append(b, '{')
		n := 0
		for i, l := range level {
			if l < 0 {
				continue
			}
			if n > 0 {
				b = append(b, ',')
			}
			n++
			b = appendJSONString(b, g.Vertices().Key(i))
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(l), 10)
			if b = a.spill(b); a.err != nil {
				return b
			}
		}
		return append(b, '}')
	}, nil
}

func ssspAnswer(g *algo.Graph, op batchOp) (result, error) {
	dist, has, err := g.SSSPVector(op.Src)
	if err != nil {
		return nil, err
	}
	return func(a *answer, b []byte) []byte { return appendVector(a, b, g.Vertices(), dist, has) }, nil
}

func widestAnswer(g *algo.Graph, op batchOp) (result, error) {
	width, has, err := g.WidestPathVector(op.Src)
	if err != nil {
		return nil, err
	}
	return func(a *answer, b []byte) []byte { return appendVector(a, b, g.Vertices(), width, has) }, nil
}

func trianglesAnswer(g *algo.Graph, _ batchOp) (result, error) {
	n, err := g.TriangleCount()
	if err != nil {
		return nil, err
	}
	return func(_ *answer, b []byte) []byte { return strconv.AppendInt(b, int64(n), 10) }, nil
}

func pageRankAnswer(g *algo.Graph, op batchOp) (result, error) {
	rank, used, err := g.PageRankVector(op.pageRank())
	if err != nil {
		return nil, err
	}
	return func(a *answer, b []byte) []byte {
		b = append(b, `{"iterations":`...)
		b = strconv.AppendInt(b, int64(used), 10)
		b = append(b, `,"rank":`...)
		b = appendVector(a, b, g.Vertices(), rank, nil)
		return append(b, '}')
	}, nil
}

// appendVector writes a kernel's dense vector as the object of its
// present entries, keyed by vertex, in key order; a nil has means every
// vertex is present.
func appendVector(a *answer, b []byte, verts *keys.Set, val []float64, has []bool) []byte {
	b = append(b, '{')
	n := 0
	for i, v := range val {
		if has != nil && !has[i] {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = appendJSONString(b, verts.Key(i))
		b = append(b, ':')
		b = appendJSONFloat(b, v)
		if b = a.spill(b); a.err != nil {
			return b
		}
	}
	return append(b, '}')
}
