package serve

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"adjarray/internal/algo"
	"adjarray/internal/stream"
)

// batchOp is one read op: a /batch entry, or a GET's route and URL query.
type batchOp struct {
	Op  string `json:"op"`            // at | row | bfs | sssp | widest | pagerank | triangles
	Src string `json:"src,omitempty"` // at, row, bfs, sssp, widest
	Dst string `json:"dst,omitempty"` // at

	// PageRank parameters; omitted fields take the defaults.
	Damping *float64 `json:"damping,omitempty"`
	Tol     *float64 `json:"tol,omitempty"`
	Iters   *int     `json:"iters,omitempty"`
}

// readOp is one entry of the op table: the arguments the op cannot do
// without, and either how it answers from its source's point pin or the
// kernel it runs on the Graph.
type readOp struct {
	src, dst bool
	point    func(a *answer, b []byte, st stamp, pt stream.PointSnapshot[float64], op batchOp) []byte
	kernel   func(g *algo.Graph, op batchOp) (result, error)
}

// readOps is the op table, by the name each op has as a route and as a
// /batch op.
var readOps = map[string]readOp{
	"at":        {src: true, dst: true, point: appendAt},
	"row":       {src: true, point: appendRow},
	"bfs":       {src: true, kernel: bfsAnswer},
	"sssp":      {src: true, kernel: ssspAnswer},
	"widest":    {src: true, kernel: widestAnswer},
	"pagerank":  {kernel: pageRankAnswer},
	"triangles": {kernel: trianglesAnswer},
}

// prepare validates op, binds it to what it reads from p and runs it,
// leaving only its answer to write. An op that fails writes nothing; its
// error's status is opStatus's.
func (s *Server) prepare(op batchOp, p *pinned) (prepared, error) {
	spec, ok := readOps[op.Op]
	q := prepared{op: op, spec: spec}
	switch {
	case !ok:
		return q, badOp("unknown op %q (want at, row, bfs, sssp, widest, pagerank, or triangles)", op.Op)
	case spec.dst && (op.Src == "" || op.Dst == ""):
		return q, &badOpError{why: op.Op + " wants src and dst", want: "want ?src=...&dst=..."}
	case spec.src && op.Src == "":
		return q, &badOpError{why: op.Op + " wants src", want: "want ?src=..."}
	case op.Op == "pagerank":
		if err := s.pageRankParams(op.pageRank()); err != nil {
			return q, badOp("%s", err)
		}
	}
	var err error
	if spec.point != nil {
		q.pt, err = p.owner(op.Src)
		return q, err
	}
	g, err := p.graph()
	if err == nil {
		q.res, err = spec.kernel(g, op)
	}
	return q, err
}

// prepared is an op that has run: a point op with its owner's pin, or a
// kernel's answer.
type prepared struct {
	op   batchOp
	spec readOp
	pt   stream.PointSnapshot[float64]
	res  result
}

// render writes the op's answer with the stamp it is handed.
func (q *prepared) render(a *answer, b []byte, st stamp) []byte {
	if q.spec.point != nil {
		return q.spec.point(a, b, st, q.pt, q.op)
	}
	return appendResult(a, b, st, q.res)
}

// handleQuery answers a GET of the op the route names, its arguments read
// from the URL query. A refused op is answered in the query's terms.
func (s *Server) handleQuery(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p := &pinned{s: s}
		op, err := queryOp(name, r.URL.Query())
		var q prepared
		if err == nil {
			q, err = s.prepare(op, p)
		}
		if err != nil {
			msg := err.Error()
			if bad := (*badOpError)(nil); errors.As(err, &bad) {
				msg = cmp.Or(bad.want, bad.why)
			}
			http.Error(w, msg, opStatus(err))
			return
		}
		s.writeAnswer(w, func(a *answer, b []byte) []byte { return q.render(a, b, stamp{epochs: p.epochs}) })
	}
}

// queryOp reads op name from a GET's URL query. PageRank's numbers are
// parsed here, the first that does not parse refused by name; every other
// parameter is taken as it is.
func queryOp(name string, q url.Values) (batchOp, error) {
	op := batchOp{Op: name, Src: q.Get("src"), Dst: q.Get("dst")}
	if name != "pagerank" {
		return op, nil
	}
	var err error
	parse := func(key string, set func(v string) error) {
		if v := q.Get(key); v != "" && err == nil && set(v) != nil {
			err = badOp("bad %s", key)
		}
	}
	parse("damping", func(v string) error { d, e := strconv.ParseFloat(v, 64); op.Damping = &d; return e })
	parse("tol", func(v string) error { t, e := strconv.ParseFloat(v, 64); op.Tol = &t; return e })
	parse("iters", func(v string) error { n, e := strconv.Atoi(v); op.Iters = &n; return e })
	return op, err
}

// pageRank is the op's PageRank parameters, each it leaves out at its
// default: damping 0.85, tol 1e-9, 100 iterations.
func (op batchOp) pageRank() (damping, tol float64, iters int) {
	return or(op.Damping, 0.85), or(op.Tol, 1e-9), or(op.Iters, 100)
}

// or is *p, or d where p is nil.
func or[T any](p *T, d T) T {
	if p == nil {
		return d
	}
	return *p
}

// pageRankParams validates the iteration's domain: damping ∈ (0, 1)
// — the algorithm's own domain — (1.5 or −0.2 parse fine but drive the
// power iteration to NaN or divergence, burning the full budget),
// tol > 0, and iters within the server bound.
func (s *Server) pageRankParams(damping, tol float64, iters int) error {
	if !(damping > 0 && damping < 1) { // the negated form also rejects NaN
		return fmt.Errorf("damping must satisfy 0 < damping < 1, got %v", damping)
	}
	if !(tol > 0) {
		return fmt.Errorf("tol must be positive, got %v", tol)
	}
	if iters <= 0 {
		return fmt.Errorf("iters must be positive, got %d", iters)
	}
	if iters > s.opt.MaxIters {
		return fmt.Errorf("iters %d exceeds the server maximum %d", iters, s.opt.MaxIters)
	}
	return nil
}

// pinned is what the ops of one request read. A /batch pins every shard
// before its first op, and its ops share those pins and one Graph; a GET
// pins when its op first asks: the owner's point pin alone for a point
// op, every shard's for a kernel.
type pinned struct {
	s      *Server
	pins   []stream.PointSnapshot[float64]
	epochs []int
	g      *algo.Graph
}

// owner returns the point pin of the shard that owns src's row and, for
// a GET, pins it alone, with the siblings' current epochs beside its own
// (stream.Store.OwnerSnapshot).
func (p *pinned) owner(src string) (stream.PointSnapshot[float64], error) {
	store := p.s.ing.Store()
	if p.pins != nil {
		return p.pins[store.ShardFor(src)], nil
	}
	pt, epochs, err := store.OwnerSnapshot(src)
	if err != nil {
		return pt, storeError{err}
	}
	p.s.met.observeEpochs(epochs)
	switch {
	case pt.Folded:
		p.s.met.pointFolded.Inc()
	case pt.Suffix() > 0:
		p.s.met.pointSuffix.Inc()
	}
	p.epochs = epochs
	return pt, nil
}

// graph returns the cached Graph over every shard's point pin, pinning
// them first if nothing has.
func (p *pinned) graph() (*algo.Graph, error) {
	if p.g != nil {
		return p.g, nil
	}
	if p.pins == nil {
		pins, epochs, err := p.s.pinShards()
		if err != nil {
			return nil, storeError{err}
		}
		p.pins, p.epochs = pins, epochs
	}
	g, err := p.s.cache.graphFor(p.pins, p.epochs)
	if err != nil {
		return nil, storeError{err}
	}
	p.g = g
	return g, nil
}

// badOpError is an op refused before it ran: the client's mistake (400,
// not 422). A /batch entry reports "bad op: " and why; a GET reports want,
// the query the op lacks, or else why.
type badOpError struct{ why, want string }

func (e *badOpError) Error() string { return "bad op: " + e.why }

func badOp(format string, args ...any) error {
	return &badOpError{why: fmt.Sprintf(format, args...)}
}

// storeError is a pin or a Graph build that failed: the store's fault,
// not the op's (500, as a copied shard's row conflict is). Its text is
// its cause's.
type storeError struct{ error }

// opStatus is the status an op's error answers with, on a GET and in its
// /batch entry alike.
func opStatus(err error) int {
	switch {
	case errors.As(err, new(*badOpError)):
		return http.StatusBadRequest
	case errors.As(err, new(storeError)):
		return http.StatusInternalServerError
	case errors.Is(err, algo.ErrNotVertex):
		return http.StatusNotFound
	default:
		return http.StatusUnprocessableEntity
	}
}
