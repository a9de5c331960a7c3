// Package serve is adjserve's production front door: the HTTP layer
// that answers adjacency and graph-algorithm queries from live
// snapshots of a core.Ingest. It was extracted from cmd/adjserve once
// the serving path grew the concerns a front door needs beyond routing:
//
//   - Observability: a Prometheus-style GET /metrics (internal/obs)
//     exposing ingest counters, per-shard epochs and WAL lag, snapshot
//     epoch age, graph-cache hit/rebuild counts, admission-control
//     queue depths, and per-endpoint latency histograms.
//   - Admission control: two bounded worker pools — cheap point reads
//     (/at, /row, /triples) and expensive algorithm queries (/bfs,
//     /sssp, /widest, /pagerank, /triangles, /batch) — with queue-depth
//     limits that shed excess load as 429 + Retry-After instead of
//     letting a burst pile up goroutines.
//   - Batched queries: POST /batch executes many ops against ONE
//     pinned snapshot and one cached Graph, amortizing the epoch-vector
//     gather and the id-space embedding across the whole request.
//   - Degraded-mode serving: POST /ingest appends edges over HTTP;
//     when a storage fault wedges the durable store read-only the
//     ingest path sheds 503 + Retry-After while every read endpoint
//     keeps answering from the last good snapshot. /healthz reports the
//     ok → degraded → read-only state machine and /metrics exposes it
//     as adjserve_storage_state / adjserve_storage_faults_total.
//
// Every response carries the epoch vector its snapshot was pinned at,
// so clients can order reads across shards.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/keys"
	"adjarray/internal/obs"
	"adjarray/internal/value"
)

// Options tunes the front door. The zero value selects production
// defaults (see withDefaults); a negative pool size or queue depth
// selects the smallest legal value, not unlimited.
type Options struct {
	// TriplesDefault is the /triples row budget when the client sends
	// no ?limit (default 10000).
	TriplesDefault int
	// TriplesMax clamps client-supplied ?limit values (default 100000):
	// one client must not be able to ask the process to serialize an
	// arbitrarily large response.
	TriplesMax int
	// MaxIters bounds /pagerank ?iters (default 1000) so a single
	// query cannot burn an unbounded iteration budget.
	MaxIters int
	// MaxBatchOps bounds ops per POST /batch request (default 256).
	MaxBatchOps int
	// MaxIngestEdges bounds edges per POST /ingest request (default
	// 10000): one append batch is applied atomically under the view
	// lock, so its size is a latency bound on every concurrent reader.
	MaxIngestEdges int
	// ReadWorkers and ReadQueue bound the cheap-read pool: concurrent
	// /at, /row, /triples executions and how many may wait (defaults
	// 64 and 256).
	ReadWorkers, ReadQueue int
	// AlgoWorkers and AlgoQueue bound the algorithm pool: concurrent
	// /bfs, /sssp, /widest, /pagerank, /triangles, /batch executions
	// and how many may wait (defaults GOMAXPROCS and 4×workers).
	AlgoWorkers, AlgoQueue int
	// RetryAfter is the hint returned with shed (429) responses
	// (default 1s).
	RetryAfter time.Duration
	// Registry receives the server's metrics; nil creates a private
	// registry (exposed either way on GET /metrics).
	Registry *Registry
}

// Registry aliases the obs registry so callers of serve need not
// import internal/obs for the common case.
type Registry = obs.Registry

func (o Options) withDefaults() Options {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		} else if *v < 0 {
			*v = 1
		}
	}
	def(&o.TriplesDefault, 10000)
	def(&o.TriplesMax, 100000)
	def(&o.MaxIters, 1000)
	def(&o.MaxBatchOps, 256)
	def(&o.MaxIngestEdges, 10000)
	def(&o.ReadWorkers, 64)
	def(&o.AlgoWorkers, runtime.GOMAXPROCS(0))
	if o.ReadQueue == 0 {
		o.ReadQueue = 256
	} else if o.ReadQueue < 0 {
		o.ReadQueue = 0 // no waiting: shed as soon as every worker is busy
	}
	if o.AlgoQueue == 0 {
		o.AlgoQueue = 4 * o.AlgoWorkers
	} else if o.AlgoQueue < 0 {
		o.AlgoQueue = 0
	}
	if o.TriplesDefault > o.TriplesMax {
		o.TriplesDefault = o.TriplesMax
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Server is the HTTP front door over one ingest. Construct with New;
// Server implements http.Handler.
type Server struct {
	ing      *core.Ingest
	opt      Options
	mux      *http.ServeMux
	cache    *graphCache
	met      *metrics
	readPool *pool
	algoPool *pool
	buffers  sync.Pool // *bytes.Buffer for single-write JSON responses
}

// New builds the front door over ing.
func New(ing *core.Ingest, opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		ing: ing,
		opt: opt,
		mux: http.NewServeMux(),
	}
	s.buffers.New = func() any { return new(bytes.Buffer) }
	s.met = newMetrics(opt.Registry, ing)
	s.cache = &graphCache{met: s.met}
	s.readPool = newPool("read", opt.ReadWorkers, opt.ReadQueue, opt.RetryAfter, s.met)
	s.algoPool = newPool("algo", opt.AlgoWorkers, opt.AlgoQueue, opt.RetryAfter, s.met)
	s.routes()
	return s
}

// ServeHTTP dispatches to the instrumented mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the registry backing GET /metrics, for callers that
// want to add their own series (the ingest front, tests).
func (s *Server) Metrics() *Registry { return s.met.reg }

// routes wires every endpoint through the metrics middleware and, for
// snapshot/algorithm queries, the matching admission pool. /stats,
// /healthz and /metrics bypass admission: an operator must be able to
// observe an overloaded process.
func (s *Server) routes() {
	handle := func(path string, p *pool, h http.HandlerFunc) {
		var inner http.Handler = h
		if p != nil {
			inner = p.admit(inner)
		}
		s.mux.Handle(path, s.met.instrument(path, inner))
	}
	handle("/stats", nil, s.handleStats)
	handle("/healthz", nil, s.handleHealthz)
	exposition := s.met.reg.Handler()
	handle("/metrics", nil, func(w http.ResponseWriter, r *http.Request) {
		s.met.observeCheckpoints(s.ing.Store().Durability())
		exposition.ServeHTTP(w, r)
	})
	// /ingest bypasses the read/algo pools — its backpressure is the
	// storage state machine (503 on read-only), not queue depth.
	handle("/ingest", nil, s.handleIngest)
	handle("/at", s.readPool, s.handleAt)
	handle("/row", s.readPool, s.handleRow)
	handle("/triples", s.readPool, s.handleTriples)
	handle("/bfs", s.algoPool, s.sourceQuery(func(g *algo.Graph, src string) (any, error) {
		return g.BFSLevels(src)
	}))
	handle("/sssp", s.algoPool, s.sourceQuery(func(g *algo.Graph, src string) (any, error) {
		dist, err := g.SSSP(src)
		if err != nil {
			return nil, err
		}
		return safeFloatMap(dist), nil
	}))
	handle("/widest", s.algoPool, s.sourceQuery(func(g *algo.Graph, src string) (any, error) {
		width, err := g.WidestPath(src)
		if err != nil {
			return nil, err
		}
		return safeFloatMap(width), nil
	}))
	handle("/triangles", s.algoPool, func(w http.ResponseWriter, r *http.Request) {
		s.algoQuery(w, func(g *algo.Graph) (any, error) { return g.TriangleCount() })
	})
	handle("/pagerank", s.algoPool, s.handlePageRank)
	handle("/batch", s.algoPool, s.handleBatch)
}

// writeJSON encodes v into a pooled buffer and writes the response in
// one shot with an explicit Content-Length. Encoding into the buffer
// first means an encode failure still has the full status line
// available — the old streaming encoder could fail after headers and
// half the body were on the wire, and its follow-up http.Error then
// corrupted the response with a "superfluous WriteHeader" on top of
// broken JSON. A failed network write is the client's disconnect; it
// is counted, not retried.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	buf := s.buffers.Get().(*bytes.Buffer)
	buf.Reset()
	defer s.buffers.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.met.encodeErrors.Inc()
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.met.writeErrors.Inc()
	}
}

// safeFloat renders ±Inf/NaN with the library's FormatFloat convention;
// JSON has no encoding for them but the tropical algebras store them as
// ordinary values (an unweighted max.min edge is width +Inf).
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

// takeSnapshot pins one consistent read: the adjacency plus the epoch
// vector it was gathered at (cached per vector, so repeated queries
// between appends share one gather).
func (s *Server) takeSnapshot() (*assoc.Array[float64], []int, bool, error) {
	snap, err := s.ing.Store().Snapshot()
	if err != nil {
		return nil, nil, false, err
	}
	s.met.observeEpochs(snap.Epochs)
	return snap.Adjacency, snap.Epochs, snap.Exact, nil
}

// snapshot is takeSnapshot with the HTTP error path folded in.
func (s *Server) snapshot(w http.ResponseWriter) (*assoc.Array[float64], []int, bool, bool) {
	adj, epochs, exact, err := s.takeSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, false, false
	}
	return adj, epochs, exact, true
}

// epochFields stamps a response with its consistency token: the pinned
// epoch vector plus the scalar sum (a single scalar for clients that
// only order responses; the vector is the token queries were answered
// at — every field of one response reflects shard i at exactly
// epochs[i]).
func epochFields(m map[string]any, epochs []int) map[string]any {
	sum := 0
	for _, e := range epochs {
		sum += e
	}
	m["epoch"] = sum
	m["epochs"] = epochs
	return m
}

// ---- graph cache ----

// graphCache memoizes the CSR-native algo.Graph per snapshot epoch
// vector: algorithm queries between ingest batches reuse one id-space
// embedding (and its lazily built transpose) instead of rebuilding per
// request.
//
// Snapshots are taken OUTSIDE the cache lock, so two concurrent
// requests can pin different epochs and reach graphFor in either
// order. The cache therefore only replaces its entry when the incoming
// vector is strictly newer (element-wise ≥ with some >): a request
// that pinned an older snapshot around an ingest batch gets a Graph
// for its own epochs but must not overwrite the newer cached one —
// the stale-overwrite would thrash the cache backwards under load.
type graphCache struct {
	mu     sync.Mutex
	epochs []int
	g      *algo.Graph
	met    *metrics
}

// graphFor returns a Graph for the pinned snapshot (adj at epochs),
// cached when the vector is current or newer than the cached one.
func (c *graphCache) graphFor(adj *assoc.Array[float64], epochs []int) (*algo.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g != nil && slices.Equal(c.epochs, epochs) {
		c.met.cacheHits.Inc()
		return c.g, nil
	}
	g, err := algo.FromArray(adj)
	if err != nil {
		return nil, err
	}
	if c.g == nil || newerEpochs(epochs, c.epochs) {
		c.g, c.epochs = g, slices.Clone(epochs)
		c.met.cacheRebuilds.Inc()
	} else {
		// Pinned-but-older (or incomparable) snapshot: serve it without
		// caching; the cache keeps the newer graph.
		c.met.cacheStale.Inc()
	}
	return g, nil
}

// newerEpochs reports whether a is element-wise ≥ b with at least one
// component strictly greater. Vectors of different lengths (a shard
// count change across a restart) count as newer.
func newerEpochs(a, b []int) bool {
	if len(a) != len(b) {
		return true
	}
	some := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			some = true
		}
	}
	return some
}

// ---- handlers ----

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.ing.Store().Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// "ok" is liveness — the process answers — and stays true in
	// degraded and read-only modes: a read-only store still serves every
	// read endpoint, so an orchestrator must not kill the process over
	// it. The storage fields carry the ok → degraded → read-only state
	// machine for alerting. Positions are per-shard vectors plus their
	// scalar sums, the convention epochFields uses for query responses.
	store := s.ing.Store()
	agg, _ := store.StorageHealth()
	durs := store.Durability()
	n := len(durs)
	states, epochs, durable := make([]string, n), make([]uint64, n), make([]uint64, n)
	var epoch, durableEpoch, lag uint64
	for i, st := range durs {
		states[i] = st.Storage.State.String()
		epochs[i], durable[i] = st.Epoch, st.DurableEpoch
		epoch += st.Epoch
		durableEpoch += st.DurableEpoch
		lag += st.WALLag
	}
	resp := map[string]any{
		"ok":             true,
		"durable":        store.Persistent(),
		"storage":        agg.State.String(),
		"storage_shards": states,
		"shards":         n,
		"epochs":         epochs,
		"epoch":          epoch,
		"durable_epochs": durable, // last batch per shard on stable storage (fsync or checkpoint)
		"durable_epoch":  durableEpoch,
		"wal_lag":        lag, // batches across all shards a crash right now would lose
		"fsync_policy":   durs[0].Policy,
	}
	if agg.Faults > 0 {
		resp["storage_faults"] = agg.Faults
	}
	if agg.Err != "" {
		resp["storage_error"] = agg.Err
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleAt(w http.ResponseWriter, r *http.Request) {
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		http.Error(w, "want ?src=...&dst=...", http.StatusBadRequest)
		return
	}
	adj, epochs, _, ok := s.snapshot(w)
	if !ok {
		return
	}
	val, stored := adj.At(src, dst)
	s.writeJSON(w, epochFields(map[string]any{"src": src, "dst": dst, "value": safeFloat(val), "stored": stored}, epochs))
}

func (s *Server) handleRow(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("src")
	if src == "" {
		http.Error(w, "want ?src=...", http.StatusBadRequest)
		return
	}
	adj, epochs, _, ok := s.snapshot(w)
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

func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	limit := s.opt.TriplesDefault
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		// Clamp, don't reject: the server maximum is a protection
		// bound, and the response says how much was actually returned.
		limit = min(n, s.opt.TriplesMax)
	}
	adj, epochs, exact, ok := s.snapshot(w)
	if !ok {
		return
	}
	total := adj.NNZ()
	// IterateUntil stops at the limit, so ?limit=1 on a large graph is
	// O(1) per request, not an O(nnz) sweep; memory is O(limit) too.
	rows := make([]map[string]any, 0, min(limit, total))
	adj.IterateUntil(func(rk, ck string, v float64) bool {
		rows = append(rows, map[string]any{"row": rk, "col": ck, "val": safeFloat(v)})
		return len(rows) < limit
	})
	s.writeJSON(w, epochFields(map[string]any{
		"triples": rows, "total": total, "limit": limit,
		"truncated": total > len(rows), "exact": exact,
	}, epochs))
}

// algoQuery runs compute against the per-epoch-vector cached Graph. A
// source that is not a vertex is the client's error (404); an
// algorithm refusing the instance (asymmetric triangles, no fixpoint)
// is 422.
func (s *Server) algoQuery(w http.ResponseWriter, compute func(g *algo.Graph) (any, error)) {
	adj, epochs, exact, ok := s.snapshot(w)
	if !ok {
		return
	}
	g, err := s.cache.graphFor(adj, epochs)
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
	s.writeJSON(w, epochFields(map[string]any{"result": res, "exact": exact}, epochs))
}

func (s *Server) sourceQuery(run func(g *algo.Graph, src string) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		src := r.URL.Query().Get("src")
		if src == "" {
			http.Error(w, "want ?src=...", http.StatusBadRequest)
			return
		}
		s.algoQuery(w, func(g *algo.Graph) (any, error) { return run(g, src) })
	}
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

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request) {
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
