package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/keys"
	"adjarray/internal/value"
)

// refServer is the reference renderer: the read handlers as they were
// before the answers were written from the kernels' vectors — every
// answer a map[string]any, every vertex entry a map entry, /row a
// SubRef, the whole of it handed to encoding/json. It has no admission,
// no metrics and no graph cache; it exists so the golden test can hold
// the append encoder's bytes to what json.Encoder writes for the same
// store.
type refServer struct {
	ing *core.Ingest
	opt Options
	mux *http.ServeMux
}

func newRefServer(ing *core.Ingest, opt Options) *refServer {
	s := &refServer{ing: ing, opt: opt.withDefaults(), mux: http.NewServeMux()}
	s.mux.HandleFunc("/at", s.handleAt)
	s.mux.HandleFunc("/row", s.handleRow)
	s.mux.HandleFunc("/triples", s.handleTriples)
	s.mux.HandleFunc("/bfs", s.sourceQuery(func(g *algo.Graph, src string) (any, error) {
		return g.BFSLevels(src)
	}))
	s.mux.HandleFunc("/sssp", s.sourceQuery(func(g *algo.Graph, src string) (any, error) {
		dist, err := g.SSSP(src)
		if err != nil {
			return nil, err
		}
		return safeFloatMap(dist), nil
	}))
	s.mux.HandleFunc("/widest", s.sourceQuery(func(g *algo.Graph, src string) (any, error) {
		width, err := g.WidestPath(src)
		if err != nil {
			return nil, err
		}
		return safeFloatMap(width), nil
	}))
	s.mux.HandleFunc("/triangles", func(w http.ResponseWriter, r *http.Request) {
		s.algoQuery(w, func(g *algo.Graph) (any, error) { return g.TriangleCount() })
	})
	s.mux.HandleFunc("/pagerank", s.handlePageRank)
	s.mux.HandleFunc("/batch", s.handleBatch)
	return s
}

func (s *refServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *refServer) writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

func safeFloat(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return value.FormatFloat(v)
	}
	return v
}

func safeFloatMap(m map[string]float64) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = safeFloat(v)
	}
	return out
}

func (s *refServer) snapshot(w http.ResponseWriter) (*assoc.Array[float64], []int, bool) {
	snap, err := s.ing.Store().Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, false
	}
	return snap.Adjacency, snap.Epochs, true
}

func epochFields(m map[string]any, epochs []int) map[string]any {
	sum := 0
	for _, e := range epochs {
		sum += e
	}
	m["epoch"] = sum
	m["epochs"] = epochs
	return m
}

func (s *refServer) handleAt(w http.ResponseWriter, r *http.Request) {
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		http.Error(w, "want ?src=...&dst=...", http.StatusBadRequest)
		return
	}
	adj, epochs, ok := s.snapshot(w)
	if !ok {
		return
	}
	val, stored := adj.At(src, dst)
	s.writeJSON(w, epochFields(map[string]any{"src": src, "dst": dst, "value": safeFloat(val), "stored": stored}, epochs))
}

func (s *refServer) handleRow(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("src")
	if src == "" {
		http.Error(w, "want ?src=...", http.StatusBadRequest)
		return
	}
	adj, epochs, ok := s.snapshot(w)
	if !ok {
		return
	}
	s.writeJSON(w, epochFields(map[string]any{"src": src, "row": rowEntries(adj, src)}, epochs))
}

func rowEntries(adj *assoc.Array[float64], src string) map[string]any {
	row := map[string]any{}
	adj.SubRef(keys.Range{Lo: src, Hi: src}, nil).Iterate(func(_, d string, v float64) {
		row[d] = safeFloat(v)
	})
	return row
}

func (s *refServer) handleTriples(w http.ResponseWriter, r *http.Request) {
	limit := min(triplesDefault, s.opt.TriplesMax)
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = min(n, s.opt.TriplesMax)
	}
	adj, epochs, ok := s.snapshot(w)
	if !ok {
		return
	}
	total := adj.NNZ()
	rows := make([]map[string]any, 0, min(limit, total))
	adj.IterateUntil(func(rk, ck string, v float64) bool {
		rows = append(rows, map[string]any{"row": rk, "col": ck, "val": safeFloat(v)})
		return len(rows) < limit
	})
	s.writeJSON(w, epochFields(map[string]any{
		"triples": rows, "total": total, "limit": limit,
		"truncated": total > len(rows),
	}, epochs))
}

func (s *refServer) algoQuery(w http.ResponseWriter, compute func(g *algo.Graph) (any, error)) {
	adj, epochs, ok := s.snapshot(w)
	if !ok {
		return
	}
	g, err := algo.FromArray(adj)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	res, err := compute(g)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, algo.ErrNotVertex) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.writeJSON(w, epochFields(map[string]any{"result": res}, epochs))
}

func (s *refServer) sourceQuery(run func(g *algo.Graph, src string) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		src := r.URL.Query().Get("src")
		if src == "" {
			http.Error(w, "want ?src=...", http.StatusBadRequest)
			return
		}
		s.algoQuery(w, func(g *algo.Graph) (any, error) { return run(g, src) })
	}
}

// pageRankParams is the live server's validation: it is not part of how
// an answer is written.
func (s *refServer) pageRankParams(damping, tol float64, iters int) error {
	return (&Server{opt: s.opt}).pageRankParams(damping, tol, iters)
}

func (s *refServer) handlePageRank(w http.ResponseWriter, r *http.Request) {
	damping, tol, iters := 0.85, 1e-9, 100
	q := r.URL.Query()
	var err error
	if v := q.Get("damping"); v != "" {
		if damping, err = strconv.ParseFloat(v, 64); err != nil {
			http.Error(w, "bad damping", http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("tol"); v != "" {
		if tol, err = strconv.ParseFloat(v, 64); err != nil {
			http.Error(w, "bad tol", http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("iters"); v != "" {
		if iters, err = strconv.Atoi(v); err != nil {
			http.Error(w, "bad iters", http.StatusBadRequest)
			return
		}
	}
	if err := s.pageRankParams(damping, tol, iters); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.algoQuery(w, func(g *algo.Graph) (any, error) {
		rank, used, err := g.PageRank(damping, tol, iters)
		if err != nil {
			return nil, err
		}
		return map[string]any{"rank": rank, "iterations": used}, nil
	})
}

func (s *refServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body: {\"ops\":[{\"op\":\"at\",...},...]}", http.StatusMethodNotAllowed)
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "batch has no ops", http.StatusBadRequest)
		return
	}
	if len(req.Ops) > s.opt.MaxBatchOps {
		http.Error(w, fmt.Sprintf("batch of %d ops exceeds the server maximum %d", len(req.Ops), s.opt.MaxBatchOps), http.StatusBadRequest)
		return
	}
	adj, epochs, ok := s.snapshot(w)
	if !ok {
		return
	}
	var g *algo.Graph
	graph := func() (*algo.Graph, error) {
		if g != nil {
			return g, nil
		}
		var err error
		g, err = algo.FromArray(adj)
		return g, err
	}
	results := make([]map[string]any, len(req.Ops))
	for i, op := range req.Ops {
		res, err := s.execOp(op, adj, graph)
		if err != nil {
			results[i] = map[string]any{"op": op.Op, "error": err.Error(), "status": opStatus(err)}
			continue
		}
		res["op"] = op.Op
		results[i] = res
	}
	s.writeJSON(w, epochFields(map[string]any{
		"results": results, "count": len(results),
	}, epochs))
}

func (s *refServer) execOp(op batchOp, adj *assoc.Array[float64], graph func() (*algo.Graph, error)) (map[string]any, error) {
	switch op.Op {
	case "at":
		if op.Src == "" || op.Dst == "" {
			return nil, badOp("at wants src and dst")
		}
		val, stored := adj.At(op.Src, op.Dst)
		return map[string]any{"src": op.Src, "dst": op.Dst, "value": safeFloat(val), "stored": stored}, nil
	case "row":
		if op.Src == "" {
			return nil, badOp("row wants src")
		}
		return map[string]any{"src": op.Src, "row": rowEntries(adj, op.Src)}, nil
	case "bfs":
		if op.Src == "" {
			return nil, badOp("bfs wants src")
		}
		g, err := graph()
		if err != nil {
			return nil, err
		}
		levels, err := g.BFSLevels(op.Src)
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": levels}, nil
	case "sssp":
		if op.Src == "" {
			return nil, badOp("sssp wants src")
		}
		g, err := graph()
		if err != nil {
			return nil, err
		}
		dist, err := g.SSSP(op.Src)
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": safeFloatMap(dist)}, nil
	case "widest":
		if op.Src == "" {
			return nil, badOp("widest wants src")
		}
		g, err := graph()
		if err != nil {
			return nil, err
		}
		width, err := g.WidestPath(op.Src)
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": safeFloatMap(width)}, nil
	case "pagerank":
		damping, tol, iters := 0.85, 1e-9, 100
		if op.Damping != nil {
			damping = *op.Damping
		}
		if op.Tol != nil {
			tol = *op.Tol
		}
		if op.Iters != nil {
			iters = *op.Iters
		}
		if err := s.pageRankParams(damping, tol, iters); err != nil {
			return nil, badOp("%s", err)
		}
		g, err := graph()
		if err != nil {
			return nil, err
		}
		rank, used, err := g.PageRank(damping, tol, iters)
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": map[string]any{"rank": rank, "iterations": used}}, nil
	case "triangles":
		g, err := graph()
		if err != nil {
			return nil, err
		}
		n, err := g.TriangleCount()
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": n}, nil
	default:
		return nil, badOp("unknown op %q (want at, row, bfs, sssp, widest, pagerank, or triangles)", op.Op)
	}
}
