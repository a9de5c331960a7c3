// Package serve is adjserve's front door: the HTTP layer that answers
// adjacency and graph-algorithm queries from live pins of a core.Ingest's
// store, and takes edges on POST /ingest.
//
// The seven read ops — at, row, bfs, sssp, widest, pagerank and triangles
// — are each a GET route of their name and a POST /batch op of their
// name, and both go through one function, prepare (op.go): it validates
// the op, binds it to what it reads and runs it, leaving the answer that
// a GET and a /batch entry both write. A point op (at, row) reads the
// point pin of the shard that owns its source, which holds the whole row,
// so a GET of one pins that shard alone. A kernel runs on the Graph built
// from every shard's point pin (algo.FromPins), cached per epoch vector;
// a /batch pins every shard once and its ops share that pin and one
// Graph, which /triples reads too. None of these folds or gathers. A
// store whose shards overlap answers 500 naming the row wherever every
// shard's rows meet, and keeps answering point reads.
//
// Around the ops: two admission pools shed excess load as 429 +
// Retry-After, GET /metrics exposes the server's series, and a store
// wedged read-only sheds /ingest as 503 while every read keeps answering.
// Every answer carries the epoch vector it was pinned at.
//
// Read answers are written, not marshalled (answer.go): each shape is a
// fixed sequence of appends, in the order encoding/json gives map keys,
// to a pooled chunk that goes to the socket whenever it fills — so the
// bytes are those of the former map-and-json.Encoder path (the golden
// test holds them to it), and no answer is held whole. writeJSON remains
// for the small, fixed-shape bodies: /stats, /healthz and the /ingest ack.
package serve

import (
	"bytes"
	"encoding/json"
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
	// /at and /row executions and how many may wait (defaults 64 and
	// 256).
	ReadWorkers, ReadQueue int
	// AlgoWorkers and AlgoQueue bound the algorithm pool, where every
	// Graph is built: concurrent /bfs, /sssp, /widest, /pagerank,
	// /triangles, /triples, /batch executions and how many may wait
	// (defaults GOMAXPROCS and 4×workers).
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
	s := &Server{ing: ing, opt: opt, mux: http.NewServeMux()}
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
// the reads, the matching admission pool. /stats,
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
	// Every read op is a route of its name: a point op in the read pool, a
	// kernel in the algorithm pool.
	for name, op := range readOps {
		p := s.algoPool
		if op.point != nil {
			p = s.readPool
		}
		handle("/"+name, p, s.handleQuery(name))
	}
	handle("/triples", s.algoPool, s.handleTriples)
	handle("/batch", s.algoPool, s.handleBatch)
}

// writeJSON encodes v into a pooled buffer and writes the response in
// one shot with an explicit Content-Length, so an encode failure can
// still answer with a clean 500. A failed network write is the client's
// disconnect; it is counted, not retried.
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

// pinShards pins one consistent read of the whole graph without
// folding or gathering it: every shard's point pin — main beside the
// log's unfolded suffix — at one epoch vector (stream.Store.PointPin).
func (s *Server) pinShards() ([]stream.PointSnapshot[float64], []int, error) {
	pins, epochs, err := s.ing.Store().PointPin()
	if err != nil {
		return nil, nil, err
	}
	s.met.observeEpochs(epochs)
	return pins, epochs, nil
}

// ---- graph cache ----

// graphCache memoizes the CSR-native algo.Graph per snapshot epoch
// vector: algorithm queries between ingest batches reuse one id-space
// embedding instead of rebuilding per request. A new vector costs one
// pattern copy of the graph (4 B per entry) into the square vertex space
// the kernels run in, and no shard's fold; values are read from the
// pinned mains and laid on (8 B more) only when a weighted kernel or
// /triples first asks.
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
	p := &pinned{s: s}
	g, err := p.graph()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeAnswer(w, func(a *answer, b []byte) []byte {
		return appendTriples(a, b, stamp{epochs: p.epochs}, g, limit)
	})
}
