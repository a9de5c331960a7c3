package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"adjarray/internal/algo"
	"adjarray/internal/stream"
)

// batchOp is one operation inside a POST /batch request.
type batchOp struct {
	Op  string `json:"op"`            // at | row | bfs | sssp | widest | pagerank | triangles
	Src string `json:"src,omitempty"` // at, row, bfs, sssp, widest
	Dst string `json:"dst,omitempty"` // at

	// PageRank parameters; omitted fields take the endpoint defaults.
	Damping *float64 `json:"damping,omitempty"`
	Tol     *float64 `json:"tol,omitempty"`
	Iters   *int     `json:"iters,omitempty"`
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

// maxBatchBody bounds the request body; 256 ops of point reads fit in
// a few KB, so 1 MiB is generous without letting one client stage an
// arbitrarily large allocation.
const maxBatchBody = 1 << 20

// handleBatch executes many query ops against ONE pinned snapshot — the
// epoch-vector pin and the graph-cache lookup are paid once per request
// instead of once per op, and nothing is gathered: an at or row op reads
// the pinned shard that owns its source, an algorithm op the cached
// Graph. Per-op failures are reported inline (an unknown vertex in op 3
// must not void the other 99 answers); request-level failures (bad
// JSON, too many ops) fail the whole request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body: {\"ops\":[{\"op\":\"at\",...},...]}", http.StatusMethodNotAllowed)
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &req); err != nil {
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

	shards, epochs, exact, ok := s.snapshot(w)
	if !ok {
		return
	}
	// A source's whole row lives on the shard its routing hash names, so
	// that shard's pinned array answers a point op cell for cell as the
	// gathered one would. The batch's pin folded every shard: a point op
	// reads no suffix.
	owner := func(src string) stream.PointSnapshot[float64] {
		return shards[s.ing.Store().ShardFor(src)].Point()
	}
	// The Graph is built (or fetched from the cache) at most once per
	// batch, and only when an algorithm op actually needs it.
	var g *algo.Graph
	graph := func() (*algo.Graph, error) {
		if g != nil {
			return g, nil
		}
		var err error
		g, err = s.cache.graphFor(shards, epochs)
		return g, err
	}

	s.writeAnswer(w, func(b []byte) []byte {
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(len(req.Ops)), 10)
		b = append(b, ',')
		b = wholeStamp(epochs, exact).appendTo(b)
		b = append(b, `"results":[`...)
		for i, op := range req.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = s.appendOp(b, op, owner, graph); err != nil {
				b = appendOpError(b, op.Op, err)
			}
		}
		return append(b, `]}`...)
	})
}

// appendOpError reports one op's failure in its place among the
// results: error, op, status — the status the single-op endpoint would
// have answered with.
func appendOpError(b []byte, op string, err error) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, err.Error())
	b = append(b, `,"op":`...)
	b = appendJSONString(b, op)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(opStatus(err)), 10)
	return append(b, '}')
}

// errBadOp marks client-side op validation failures (400, not 422).
var errBadOp = errors.New("bad op")

func badOp(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadOp, fmt.Sprintf(format, args...))
}

func opStatus(err error) int {
	switch {
	case errors.Is(err, errBadOp):
		return http.StatusBadRequest
	case errors.Is(err, algo.ErrNotVertex):
		return http.StatusNotFound
	default:
		return http.StatusUnprocessableEntity
	}
}

// appendOp answers one batch op from the shared pinned snapshot, in the
// shape of its standalone endpoint with the op's name for a stamp. An
// op that fails appends nothing.
func (s *Server) appendOp(b []byte, op batchOp, owner func(src string) stream.PointSnapshot[float64], graph func() (*algo.Graph, error)) ([]byte, error) {
	st := stamp{op: op.Op}
	var run func(g *algo.Graph) (result, error)
	switch op.Op {
	case "at":
		if op.Src == "" || op.Dst == "" {
			return b, badOp("at wants src and dst")
		}
		return appendAt(b, st, owner(op.Src), op.Src, op.Dst), nil
	case "row":
		if op.Src == "" {
			return b, badOp("row wants src")
		}
		return appendRow(b, st, owner(op.Src), op.Src), nil
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
			return b, badOp("%s", err)
		}
		run = func(g *algo.Graph) (result, error) { return pageRankAnswer(g, damping, tol, iters) }
	case "triangles":
		run = trianglesAnswer
	default:
		kernel, ok := sourceKernels[op.Op]
		if !ok {
			return b, badOp("unknown op %q (want at, row, bfs, sssp, widest, pagerank, or triangles)", op.Op)
		}
		if op.Src == "" {
			return b, badOp("%s wants src", op.Op)
		}
		run = func(g *algo.Graph) (result, error) { return kernel(g, op.Src) }
	}
	g, err := graph()
	if err != nil {
		return b, err
	}
	res, err := run(g)
	if err != nil {
		return b, err
	}
	return appendResult(b, st, res), nil
}
