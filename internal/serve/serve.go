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
//     pin and the id-space embedding across the whole request.
//   - Degraded-mode serving: POST /ingest appends edges over HTTP;
//     when a storage fault wedges the durable store read-only the
//     ingest path sheds 503 + Retry-After while every read endpoint
//     keeps answering from the last good snapshot. /healthz reports the
//     ok → degraded → read-only state machine and /metrics exposes it
//     as adjserve_storage_state / adjserve_storage_faults_total.
//
// Every response carries the epoch vector its snapshot was pinned at,
// so clients can order reads across shards. A whole-graph answer (an
// algorithm, /triples, /batch) pins every shard. An algorithm or /batch
// pin folds and gathers nothing: it takes every shard's point pin, main
// beside the log's unfolded suffix (stream.Store.PointPin); the cached
// Graph is built from those, each shard's main continued by its suffix
// as its rows are copied once, as a pattern, into the square vertex space
// the kernels run in (algo.FromPins); a /batch point op reads the point
// pin of the shard that owns its source; and only /triples asks the
// store for the gathered store-wide array. Shards own disjoint rows and both the Graph
// build and the gather check it: a store whose shards overlap answers
// 500 naming the row on those paths, while point reads keep answering. A
// point read (/at, /row) pins only the shard that owns its source vertex
// — that shard holds the whole row — so its vector is the owner's pinned
// epoch with each sibling's current epoch beside it, and no sibling
// folds, is waited for or is gathered for it.
//
// Read answers are written, not marshalled: the kernels answer with
// vectors over the graph's vertex key set, which is already in key
// order, and answer.go appends them field by field, in the order
// encoding/json gives map keys, to a pooled chunk that goes to the
// socket whenever it fills — so the bytes are the ones the former
// map-and-reflect path produced (the golden test holds them to it),
// without a map entry or a boxed float per vertex, and no answer is held
// whole: an answer that fits one chunk goes out in one write with its
// Content-Length, a longer one with chunked transfer encoding. writeJSON
// remains for the small, fixed-shape bodies: /stats, /healthz and the
// /ingest ack.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"adjarray/internal/algo"
	"adjarray/internal/core"
	"adjarray/internal/obs"
	"adjarray/internal/stream"
)

// Options tunes the front door. The zero value selects production
// defaults (see withDefaults); a negative pool size or queue depth
// selects the smallest legal value, not unlimited.
type Options struct {
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
	buffers  sync.Pool // *bytes.Buffer, one small response body each (writeJSON)
	answers  sync.Pool // *answer, each holding a chunk-sized slice between read answers (writeAnswer)
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
	s.answers.New = func() any { return new(answer) } // its chunk grows with the first answers it holds
	s.met = newMetrics(opt.Registry, ing)
	s.cache = &graphCache{met: s.met, build: algo.FromPins}
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
		s.met.beginScrape()
		defer s.met.endScrape()
		exposition.ServeHTTP(w, r)
	})
	// /ingest bypasses the read/algo pools — its backpressure is the
	// storage state machine (503 on read-only), not queue depth.
	handle("/ingest", nil, s.handleIngest)
	handle("/at", s.readPool, s.handleAt)
	handle("/row", s.readPool, s.handleRow)
	handle("/triples", s.readPool, s.handleTriples)
	for name, kernel := range sourceKernels {
		handle("/"+name, s.algoPool, s.sourceQuery(kernel))
	}
	handle("/triangles", s.algoPool, func(w http.ResponseWriter, r *http.Request) {
		s.algoQuery(w, trianglesAnswer)
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

// takeSnapshot pins one consistent read of the whole graph without
// folding or gathering it: every shard's point pin — main beside the
// log's unfolded suffix — at one epoch vector, and the vector
// (stream.Store.PointPin). Whoever needs one array over the whole store
// — only /triples — asks the store for the gathered snapshot instead.
func (s *Server) takeSnapshot() ([]stream.PointSnapshot[float64], []int, error) {
	pins, epochs, err := s.ing.Store().PointPin()
	if err != nil {
		return nil, nil, err
	}
	s.met.observeEpochs(epochs)
	return pins, epochs, nil
}

// snapshot is takeSnapshot with the HTTP error path folded in.
func (s *Server) snapshot(w http.ResponseWriter) ([]stream.PointSnapshot[float64], []int, bool) {
	pins, epochs, err := s.takeSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, false
	}
	return pins, epochs, true
}

// pinOwner pins a point read: the point pin of the one shard that owns
// src's row — main beside the log's unfolded suffix, nothing folded up to
// the threshold — and the epoch vector to answer with (see
// stream.Store.OwnerSnapshot), with the HTTP error path folded in.
func (s *Server) pinOwner(w http.ResponseWriter, src string) (stream.PointSnapshot[float64], []int, bool) {
	pt, epochs, err := s.ing.Store().OwnerSnapshot(src)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return pt, nil, false
	}
	s.met.observeEpochs(epochs)
	switch {
	case pt.Folded:
		s.met.pointFolded.Inc()
	case pt.Suffix() > 0:
		s.met.pointSuffix.Inc()
	}
	return pt, epochs, true
}

// ---- graph cache ----

// graphCache memoizes the CSR-native algo.Graph per snapshot epoch
// vector: algorithm queries between ingest batches reuse one id-space
// embedding instead of rebuilding per request. The Graph is built from
// the shards' point pins directly — each shard's main continued by its
// unfolded suffix as it is copied, as a pattern, into the square vertex
// space the kernels run in — so a new vector costs one pattern copy of
// the graph (4 B per entry) and no shard's fold, and the cached Graph
// keeps no store-wide array alive beside its own: every kernel pushes
// along that pattern, no transpose is built, and values are read from
// the pinned mains and laid on (8 B more, 12 in all) only when a weighted
// kernel first asks.
//
// Snapshots are taken OUTSIDE the cache lock, so two concurrent
// requests can pin different epochs and reach graphFor in either
// order. The cache therefore only replaces its entry when the incoming
// vector is strictly newer (element-wise ≥ with some >): a request
// that pinned an older snapshot around an ingest batch gets a Graph
// for its own epochs but must not overwrite the newer cached one —
// the stale-overwrite would thrash the cache backwards under load.
//
// The lock covers the lookup and the install only. The build runs
// outside it, once per entry: requests at the entry's vector wait for
// that one build, and a request at any other vector — the previous one
// included — never queues behind somebody else's.
type graphCache struct {
	mu     sync.Mutex
	epochs []int
	entry  *graphEntry
	met    *metrics
	build  func([]stream.PointSnapshot[float64]) (*algo.Graph, error) // algo.FromPins; tests gate it
}

// graphEntry is one Graph, built or being built.
type graphEntry struct {
	once sync.Once
	g    *algo.Graph
	err  error
}

// graphFor returns a Graph for the pinned snapshot (shards at epochs),
// cached when the vector is current or newer than the cached one.
func (c *graphCache) graphFor(pins []stream.PointSnapshot[float64], epochs []int) (*algo.Graph, error) {
	c.mu.Lock()
	e := c.entry
	switch {
	case e != nil && slices.Equal(c.epochs, epochs):
		c.met.cacheHits.Inc()
	case e == nil || newerEpochs(epochs, c.epochs):
		e = &graphEntry{}
		c.entry, c.epochs = e, slices.Clone(epochs)
		c.met.cacheRebuilds.Inc()
	default:
		// Pinned-but-older (or incomparable) snapshot: serve it without
		// caching; the cache keeps the newer graph.
		e = &graphEntry{}
		c.met.cacheStale.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() { e.g, e.err = c.build(pins) })
	return e.g, e.err
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
	// scalar sums, the convention query responses use for their epochs.
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
	pt, epochs, ok := s.pinOwner(w, src)
	if !ok {
		return
	}
	s.writeAnswer(w, func(_ *answer, b []byte) []byte { return appendAt(b, stamp{epochs: epochs}, pt, src, dst) })
}

func (s *Server) handleRow(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("src")
	if src == "" {
		http.Error(w, "want ?src=...", http.StatusBadRequest)
		return
	}
	pt, epochs, ok := s.pinOwner(w, src)
	if !ok {
		return
	}
	s.writeAnswer(w, func(a *answer, b []byte) []byte { return appendRow(a, b, stamp{epochs: epochs}, pt, src) })
}

// triplesDefault is the /triples row budget when the client sends no
// ?limit; Options.TriplesMax clamps it like any other limit.
const triplesDefault = 10000

func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	limit := min(triplesDefault, s.opt.TriplesMax)
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
	// The one answer read off the store-wide array, which Snapshot folds
	// and gathers on every call: the first stored entries in row-major
	// key order interleave every shard's rows.
	snap, err := s.ing.Store().Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.met.observeEpochs(snap.Epochs)
	s.writeAnswer(w, func(a *answer, b []byte) []byte {
		return appendTriples(a, b, stamp{epochs: snap.Epochs}, snap.Adjacency, limit)
	})
}

// algoQuery runs a kernel against the per-epoch-vector cached Graph and
// writes its answer. A source that is not a vertex is the client's
// error (404); an algorithm refusing the instance (asymmetric
// triangles, no fixpoint) is 422.
func (s *Server) algoQuery(w http.ResponseWriter, run func(g *algo.Graph) (result, error)) {
	pins, epochs, ok := s.snapshot(w)
	if !ok {
		return
	}
	g, err := s.cache.graphFor(pins, epochs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	res, err := run(g)
	if err != nil {
		http.Error(w, err.Error(), opStatus(err))
		return
	}
	s.writeAnswer(w, func(a *answer, b []byte) []byte { return appendResult(a, b, stamp{epochs: epochs}, res) })
}

func (s *Server) sourceQuery(run func(g *algo.Graph, src string) (result, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		src := r.URL.Query().Get("src")
		if src == "" {
			http.Error(w, "want ?src=...", http.StatusBadRequest)
			return
		}
		s.algoQuery(w, func(g *algo.Graph) (result, error) { return run(g, src) })
	}
}

// The PageRank parameters a request leaves out, on GET /pagerank and a
// /batch pagerank op alike.
const (
	defaultDamping = 0.85
	defaultTol     = 1e-9
	defaultIters   = 100
)

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
	damping, tol, iters := defaultDamping, defaultTol, defaultIters
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
	s.algoQuery(w, func(g *algo.Graph) (result, error) { return pageRankAnswer(g, damping, tol, iters) })
}
