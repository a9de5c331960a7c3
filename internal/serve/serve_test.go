package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/stream"
)

func newTestIngest(t *testing.T, opt core.IngestOptions) *core.Ingest {
	t.Helper()
	if opt.Semiring == "" {
		opt.Semiring = "+.*"
	}
	if opt.BatchSize == 0 {
		opt.BatchSize = 4
	}
	ing, err := core.NewIngest(opt)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

func seedEdges(t *testing.T, ing *core.Ingest, edges ...[2]string) {
	t.Helper()
	for _, e := range edges {
		if err := ing.Add(stream.Edge[float64]{Src: e[0], Dst: e[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var body map[string]any
	if rec.Code == http.StatusOK && strings.Contains(rec.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return rec.Code, body
}

func triangleServer(t *testing.T) (*Server, *core.Ingest) {
	t.Helper()
	ing := newTestIngest(t, core.IngestOptions{})
	seedEdges(t, ing, [2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	return New(ing, Options{}), ing
}

func TestEndpoints(t *testing.T) {
	s, _ := triangleServer(t)
	if code, body := get(t, s, "/at?src=a&dst=b"); code != 200 || body["value"].(float64) != 1 || body["stored"] != true {
		t.Fatalf("/at = %d %v", code, body)
	}
	if code, body := get(t, s, "/row?src=a"); code != 200 {
		t.Fatalf("/row = %d", code)
	} else if row := body["row"].(map[string]any); len(row) != 2 {
		t.Fatalf("/row entries = %v", row)
	}
	if code, body := get(t, s, "/bfs?src=a"); code != 200 {
		t.Fatalf("/bfs = %d", code)
	} else {
		levels := body["result"].(map[string]any)
		if levels["a"].(float64) != 0 || levels["b"].(float64) != 1 || levels["c"].(float64) != 1 {
			t.Fatalf("/bfs levels = %v", levels)
		}
	}
	if code, _ := get(t, s, "/bfs?src=zz"); code != http.StatusNotFound {
		t.Fatalf("/bfs unknown source = %d, want 404", code)
	}
	if code, _ := get(t, s, "/triangles"); code != http.StatusUnprocessableEntity {
		t.Fatalf("/triangles on asymmetric pattern = %d, want 422", code)
	}
	if code, body := get(t, s, "/healthz"); code != 200 || body["ok"] != true {
		t.Fatalf("/healthz = %d %v", code, body)
	}
}

// GET /metrics must expose the series the issue promises: ingest
// counters, epochs, per-endpoint latency histograms, cache and
// admission counters — in valid exposition text.
func TestMetricsContent(t *testing.T) {
	s, _ := triangleServer(t)
	// Drive some traffic so instrument-backed series exist.
	get(t, s, "/at?src=a&dst=b")
	get(t, s, "/bfs?src=a")
	get(t, s, "/bfs?src=a") // second hit is a cache hit
	get(t, s, "/bfs")       // 400: no src

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE adjserve_http_request_seconds histogram",
		`adjserve_http_request_seconds_bucket{le="+Inf",path="/bfs"}`,
		`adjserve_http_request_seconds_count{path="/at"} 1`,
		`adjserve_http_requests_total{code="200",path="/bfs"} 2`,
		`adjserve_http_requests_total{code="400",path="/bfs"} 1`,
		"# TYPE adjserve_ingest_edges_total counter",
		"adjserve_ingest_edges_total 3",
		`adjserve_shard_epoch{shard="0"} 1`,
		"adjserve_graph_cache_rebuilds_total 1",
		"adjserve_graph_cache_hits_total 1",
		"adjserve_snapshot_epoch_age_seconds",
		`adjserve_admission_worker_limit{class="algo"}`,
		`adjserve_admission_shed_total{class="read"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// scrapeMetric returns the value of the first exposition line starting
// with the given series name (including any label set).
func scrapeMetric(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("/metrics has no series %q", series)
	return 0
}

// The interner gauges must track ingest: interning fresh vertex keys
// grows the slab and the key count, and the gauges see it on the next
// scrape (they poll the live interners, no caching layer).
func TestInternerGauges(t *testing.T) {
	s, ing := triangleServer(t)
	slabOut := scrapeMetric(t, s, `adjserve_interner_slab_bytes{side="out"}`)
	slabIn := scrapeMetric(t, s, `adjserve_interner_slab_bytes{side="in"}`)
	keys0 := scrapeMetric(t, s, "adjserve_interner_keys")
	if slabOut <= 0 || slabIn <= 0 || keys0 <= 0 {
		t.Fatalf("gauges empty after seeding: slab out=%v in=%v keys=%v", slabOut, slabIn, keys0)
	}
	if slots := scrapeMetric(t, s, `adjserve_interner_table_slots{side="out"}`); slots <= 0 {
		t.Fatalf("table slots gauge = %v", slots)
	}
	seedEdges(t, ing,
		[2]string{"fresh-source-vertex", "fresh-destination-vertex"},
		[2]string{"another-new-source", "another-new-destination"})
	if got := scrapeMetric(t, s, `adjserve_interner_slab_bytes{side="out"}`); got <= slabOut {
		t.Errorf("out slab bytes did not grow: %v -> %v", slabOut, got)
	}
	if got := scrapeMetric(t, s, `adjserve_interner_slab_bytes{side="in"}`); got <= slabIn {
		t.Errorf("in slab bytes did not grow: %v -> %v", slabIn, got)
	}
	if got := scrapeMetric(t, s, "adjserve_interner_keys"); got != keys0+4 {
		t.Errorf("interner keys = %v after 4 fresh endpoint keys, want %v", got, keys0+4)
	}
}

// Regression (bugfix 4): /pagerank must reject out-of-domain
// parameters with 400 instead of burning the iteration budget on a
// divergent or NaN fixpoint.
func TestPageRankParamValidation(t *testing.T) {
	s, _ := triangleServer(t)
	bad := []string{
		"damping=1.5",   // diverges
		"damping=-0.2",  // negative
		"damping=0",     // no link-following at all; algo domain is (0, 1)
		"damping=1",     // domain is (0, 1)
		"damping=NaN",   // parses as NaN
		"tol=0",         // no convergence criterion
		"tol=-1e-9",     // negative
		"tol=NaN",       // NaN
		"iters=0",       // no work
		"iters=-5",      // negative
		"iters=1000000", // over the server bound
		"damping=abc",   // unparseable
		"tol=abc",       // unparseable
		"iters=1.5",     // unparseable int
	}
	for _, q := range bad {
		if code, _ := get(t, s, "/pagerank?"+q); code != http.StatusBadRequest {
			t.Errorf("/pagerank?%s = %d, want 400", q, code)
		}
	}
	good := []string{
		"",             // defaults
		"damping=0.01", // near the lower boundary
		"damping=0.99",
		"tol=1e-12",
		"iters=1000", // exactly the server bound
	}
	for _, q := range good {
		if code, _ := get(t, s, "/pagerank?"+q); code != 200 {
			t.Errorf("/pagerank?%s = %d, want 200", q, code)
		}
	}
}

// Regression (bugfix 3): /triples must clamp client limits to the
// server maximum and stop iterating at the limit.
func TestTriplesLimitAndClamp(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{})
	var edges [][2]string
	for i := 0; i < 30; i++ {
		edges = append(edges, [2]string{fmt.Sprintf("s%02d", i), fmt.Sprintf("d%02d", i)})
	}
	seedEdges(t, ing, edges...)
	s := New(ing, Options{TriplesMax: 5})

	// A limit over the server maximum is clamped, not honored.
	code, body := get(t, s, "/triples?limit=1000000")
	if code != 200 {
		t.Fatalf("/triples = %d", code)
	}
	if n := len(body["triples"].([]any)); n != 5 {
		t.Fatalf("clamped /triples returned %d rows, want 5", n)
	}
	if body["limit"].(float64) != 5 || body["truncated"] != true || body["total"].(float64) != 30 {
		t.Fatalf("clamped /triples metadata = %v", body)
	}
	// The default is also clamped to the maximum.
	if _, body := get(t, s, "/triples"); len(body["triples"].([]any)) != 5 {
		t.Fatalf("default /triples = %v rows, want 5", len(body["triples"].([]any)))
	}
	// Small explicit limits work and report truncation.
	if _, body := get(t, s, "/triples?limit=1"); len(body["triples"].([]any)) != 1 || body["truncated"] != true {
		t.Fatalf("/triples?limit=1 = %v", body)
	}
	if code, _ := get(t, s, "/triples?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("/triples?limit=-1 = %d, want 400", code)
	}
	if code, _ := get(t, s, "/triples?limit=0"); code != http.StatusBadRequest {
		t.Fatalf("/triples?limit=0 = %d, want 400", code)
	}
}

// Regression (bugfix 2): writeJSON must never write a partial body and
// then try to send an error. Success responses carry Content-Length
// and exactly the encoded bytes; encode failures yield a clean 500.
func TestWriteJSONSingleWrite(t *testing.T) {
	s, _ := triangleServer(t)

	rec := httptest.NewRecorder()
	s.writeJSON(rec, map[string]any{"x": 1})
	if rec.Code != 200 {
		t.Fatalf("writeJSON success = %d", rec.Code)
	}
	cl, err := strconv.Atoi(rec.Header().Get("Content-Length"))
	if err != nil || cl != rec.Body.Len() {
		t.Fatalf("Content-Length %q does not match body length %d", rec.Header().Get("Content-Length"), rec.Body.Len())
	}

	// A raw +Inf float64 is unencodable JSON: the old streaming path
	// had already written 200 + partial body before failing, then
	// stacked http.Error on top. The buffered path fails before any
	// byte reaches the wire.
	rec = httptest.NewRecorder()
	s.writeJSON(rec, map[string]any{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON(Inf) = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "json") {
		t.Fatalf("failed encode should not claim a JSON body, got %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "encode response") {
		t.Fatalf("error body = %q", rec.Body.String())
	}
	if s.met.encodeErrors.Value() != 1 {
		t.Fatalf("encode error counter = %d, want 1", s.met.encodeErrors.Value())
	}
}

// Regression (bugfix 1, deterministic half): a request that pinned an
// older epoch vector must not overwrite a newer cached Graph.
func TestGraphCacheRejectsStaleOverwrite(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{})
	seedEdges(t, ing, [2]string{"a", "b"})
	s := New(ing, Options{})

	// Request A pins the epoch-1 snapshot but is "slow": it has not
	// reached the cache yet.
	adjOld, epochsOld, err := s.takeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// An ingest batch lands and request B pins + caches epoch 2.
	seedEdges(t, ing, [2]string{"b", "c"})
	adjNew, epochsNew, err := s.takeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	gNew, err := s.cache.graphFor(adjNew, epochsNew)
	if err != nil {
		t.Fatal(err)
	}

	// Request A finally reaches the cache. It must be answered from
	// its own pinned snapshot...
	gOld, err := s.cache.graphFor(adjOld, epochsOld)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gOld.BFSLevels("a"); err != nil {
		t.Fatal(err)
	}
	if gOld == gNew {
		t.Fatal("older request was served the newer graph")
	}
	// ...without evicting the newer cached entry (the old code
	// overwrote here, thrashing the cache backwards under load).
	gAgain, err := s.cache.graphFor(adjNew, epochsNew)
	if err != nil {
		t.Fatal(err)
	}
	if gAgain != gNew {
		t.Fatal("stale request evicted the newer cached graph")
	}
	if s.met.cacheStale.Value() != 1 {
		t.Fatalf("stale-serve counter = %d, want 1", s.met.cacheStale.Value())
	}
	if s.met.cacheHits.Value() != 1 {
		t.Fatalf("hit counter = %d, want 1 (the re-fetch of the newer vector)", s.met.cacheHits.Value())
	}
}

// Regression (bugfix 1, racing half): two requests racing around an
// append, under -race. The cache must end at the newest vector no
// matter the interleaving.
func TestGraphCacheRaceAroundAppend(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		ing := newTestIngest(t, core.IngestOptions{BatchSize: 1})
		seedEdges(t, ing, [2]string{"a", "b"})
		s := New(ing, Options{})

		var wg sync.WaitGroup
		start := make(chan struct{})
		request := func() {
			defer wg.Done()
			<-start
			adj, epochs, err := s.takeSnapshot()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.cache.graphFor(adj, epochs); err != nil {
				t.Error(err)
			}
		}
		wg.Add(3)
		go request()
		go func() {
			defer wg.Done()
			<-start
			if err := ing.Add(stream.Edge[float64]{Src: "b", Dst: "c"}); err != nil {
				t.Error(err)
			}
		}()
		go request()
		close(start)
		wg.Wait()

		// Whatever the interleaving, a request pinning the final state
		// must find or install the newest vector — and once it has, the
		// cached vector is final (nothing older can replace it).
		adj, epochs, err := s.takeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.cache.graphFor(adj, epochs); err != nil {
			t.Fatal(err)
		}
		s.cache.mu.Lock()
		cached := append([]int(nil), s.cache.epochs...)
		s.cache.mu.Unlock()
		if len(cached) != len(epochs) || cached[0] != epochs[0] {
			t.Fatalf("iter %d: cache ended at %v, want newest %v", iter, cached, epochs)
		}
	}
}

// The cache lock covers lookup and install, never a build: while the
// Graph for a new vector is being built, a request pinned at the vector
// cached before it is answered (by a build of its own — it is stale by
// then — not by waiting), and every request at the new vector shares the
// one build in flight.
func TestGraphCacheBuildsOutsideItsLock(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{BatchSize: 1})
	seedEdges(t, ing, [2]string{"a", "b"})
	s := New(ing, Options{})
	adj1, epochs1, err := s.takeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cache.graphFor(adj1, epochs1); err != nil {
		t.Fatal(err)
	}
	seedEdges(t, ing, [2]string{"b", "c"})
	adj2, epochs2, err := s.takeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// From here on a build for the new snapshot blocks until released.
	var newBuilds atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	s.cache.build = func(parts []*assoc.Array[float64]) (*algo.Graph, error) {
		if parts[0] == adj2[0].Adjacency {
			if newBuilds.Add(1) == 1 {
				close(entered)
			}
			<-release
		}
		return algo.FromArrays(parts)
	}
	graphs := make(chan *algo.Graph, 2)
	request := func() {
		g, err := s.cache.graphFor(adj2, epochs2)
		if err != nil {
			t.Error(err)
		}
		graphs <- g
	}
	go request()
	<-entered
	hits := s.met.cacheHits.Value()
	go request()
	for s.met.cacheHits.Value() == hits { // the second request has found the entry in flight
		runtime.Gosched()
	}

	answered := make(chan error, 1)
	go func() {
		g, err := s.cache.graphFor(adj1, epochs1)
		if err == nil {
			_, err = g.BFSLevels("a")
		}
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a request at the previously cached vector waited on the build of a newer one")
	}

	close(release)
	if g1, g2 := <-graphs, <-graphs; g1 == nil || g1 != g2 {
		t.Errorf("two requests at one new vector got graphs %p and %p, want one shared build", g1, g2)
	}
	if n := newBuilds.Load(); n != 1 {
		t.Errorf("the new vector's Graph was built %d times, want once", n)
	}
	if s.met.cacheRebuilds.Value() != 2 || s.met.cacheStale.Value() != 1 {
		t.Errorf("rebuilds %d stale %d, want 2 and 1", s.met.cacheRebuilds.Value(), s.met.cacheStale.Value())
	}
}

// Algorithm queries against live snapshots while ingest continues —
// the serving-path -race gate, now through the full front door
// (admission pools + metrics middleware included).
func TestQueriesDuringConcurrentIngest(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{})
	seedEdges(t, ing, [2]string{"v00", "v01"}, [2]string{"v01", "v02"})
	s := New(ing, Options{})

	var mu sync.Mutex
	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			paths := []string{"/bfs?src=v00", "/pagerank?iters=10", "/stats", "/triples?limit=5", "/metrics"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[(i+w)%len(paths)]
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("GET %s = %d: %s", path, rec.Code, rec.Body.String()))
				}
			}
		}(w)
	}

	for i := 0; i < 300; i++ {
		e := stream.Edge[float64]{
			Src: fmt.Sprintf("w%02d", i%17),
			Dst: fmt.Sprintf("w%02d", (i+3)%17),
		}
		mu.Lock()
		err := ing.Add(e)
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()

	mu.Lock()
	_, err := ing.Snapshot()
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s, "/bfs?src=v00"); code != 200 {
		t.Fatalf("final /bfs = %d", code)
	}
}

// One HTTP shape for every store: /stats and /healthz carry the same
// keys, and /metrics the same families, whatever the shard count and
// whether or not there is a WAL — the per-shard families labelled by
// shard throughout.
func TestOneShapeForEveryShardCount(t *testing.T) {
	keysOf := func(m map[string]any) string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		return strings.Join(ks, " ")
	}
	var first [3]string
	for _, shards := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d durable=%v", shards, durable)
			opt := core.IngestOptions{Shards: shards}
			if durable {
				opt.DataDir = t.TempDir()
			}
			ing := newTestIngest(t, opt)
			defer ing.Close()
			seedEdges(t, ing, [2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
			s := New(ing, Options{})

			_, stats := get(t, s, "/stats")
			_, hz := get(t, s, "/healthz")
			if stats["Edges"] != 3.0 || len(stats["PerShard"].([]any)) != shards {
				t.Errorf("%s: /stats = %v", name, stats)
			}
			if hz["durable"] != durable || hz["shards"] != float64(shards) || hz["epoch"] == nil || hz["durable_epoch"] == nil ||
				len(hz["epochs"].([]any)) != shards || len(hz["durable_epochs"].([]any)) != shards || len(hz["storage_shards"].([]any)) != shards {
				t.Errorf("%s: /healthz = %v", name, hz)
			}

			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			var families []string
			for _, line := range strings.Split(rec.Body.String(), "\n") {
				if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
					families = append(families, f)
				}
			}
			for _, fam := range []string{"adjserve_shard_epoch", "adjserve_wal_lag_batches", "adjserve_checkpoint_seq",
				"adjserve_view_folds_total", "adjserve_view_fold_seconds_total",
				"adjserve_checkpoints_total", "adjserve_checkpoint_bytes", "adjserve_checkpoint_seconds_count"} {
				if last := fmt.Sprintf(`%s{shard="%d"}`, fam, shards-1); !strings.Contains(rec.Body.String(), last) {
					t.Errorf("%s: /metrics has no %s", name, last)
				}
			}

			shape := [3]string{keysOf(stats), keysOf(hz), strings.Join(families, "\n")}
			if first == [3]string{} {
				first = shape
			}
			for i, what := range []string{"/stats keys", "/healthz keys", "/metrics families"} {
				if shape[i] != first[i] {
					t.Errorf("%s: %s differ from the first store's:\n%s\nvs\n%s", name, what, shape[i], first[i])
				}
			}
		}
	}
}
