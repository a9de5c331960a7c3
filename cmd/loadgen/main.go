// Command loadgen is the closed-loop load harness for adjserve's front
// door. It drives an open-model request stream (exponential
// inter-arrival times at a target rate, so queueing delay is measured
// rather than hidden by back-pressure as a closed loop would) with
// zipfian vertex popularity — matching the R-MAT degree skew, so the
// hot vertices of the graph are also the hot vertices of the workload —
// and reports per-endpoint p50/p99/p999 latency plus shed (429) and
// degraded (503, a read-only store shedding ingest) counts as distinct
// columns.
//
// With -ingest-weight > 0 the mix includes POST /ingest writes, so the
// harness can measure a degraded store: when storage wedges read-only,
// ingest 503s land in the degraded column while read latencies keep
// being measured — benchdiff then diffs the shed/degraded rates
// between baselines.
//
// With no -target it self-serves: it builds an in-process ingest,
// loads an R-MAT graph, and mounts the same serve.New front door that
// cmd/adjserve exposes, so the harness measures the serving path
// without a network between benchmarks. Point -target at a running
// adjserve to load a real deployment instead.
//
// -json writes the results in the graphbench baseline schema (rows
// keyed generator|semiring|backend|workers, one row per endpoint, with
// p50_ns/p99_ns/p999_ns alongside build_ns=p50) so cmd/benchdiff can
// compare serving latency trajectories exactly like build benchmarks:
//
//	loadgen -scale 12 -rate 2000 -duration 10s -json BENCH_7.json
//	benchdiff BENCH_7.json BENCH_7_CI.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"adjarray/internal/core"
	"adjarray/internal/dataset"
	"adjarray/internal/render"
	"adjarray/internal/serve"
	"adjarray/internal/stream"
)

type config struct {
	target       string
	scale        int
	edgeFactor   int
	shards       int
	seed         int64
	rate         float64
	duration     time.Duration
	maxOut       int
	zipfS        float64
	batchOps     int
	ingestWeight int
	jsonPath     string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.target, "target", "", "base URL of a running adjserve (empty = self-serve in-process)")
	flag.IntVar(&cfg.scale, "scale", 12, "R-MAT scale for self-serve mode (2^scale vertices)")
	flag.IntVar(&cfg.edgeFactor, "edge-factor", 8, "R-MAT edges per vertex")
	flag.IntVar(&cfg.shards, "shards", 0, "self-serve ingest shards (0/1 = one shard, < 0 = GOMAXPROCS)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator and workload seed")
	flag.Float64Var(&cfg.rate, "rate", 2000, "offered request rate per second (open model)")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "load duration")
	flag.IntVar(&cfg.maxOut, "max-outstanding", 512, "bound on concurrent in-flight requests; arrivals beyond it are dropped and counted")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.2, "zipf exponent for vertex popularity (>1)")
	flag.IntVar(&cfg.batchOps, "batch-ops", 8, "ops per POST /batch request")
	flag.IntVar(&cfg.ingestWeight, "ingest-weight", 0, "mix weight for POST /ingest writes (0 = read-only workload)")
	flag.StringVar(&cfg.jsonPath, "json", "", "write results as a graphbench-schema baseline to this path")
	flag.Parse()

	sum, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Print(sum.table())
	if cfg.jsonPath != "" {
		if err := sum.writeJSON(cfg.jsonPath, time.Now().UTC()); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", cfg.jsonPath)
	}
}

// mix is the endpoint blend: mostly cheap point reads with a steady
// stream of algorithm queries and batches — the shape a front door
// actually sees, and enough pressure on both admission pools to
// exercise shedding under overload.
type arm struct {
	name   string
	weight int
}

var mix = []arm{
	{"/at", 35},
	{"/row", 25},
	{"/bfs", 15},
	{"/pagerank", 10},
	{"/batch", 15},
}

// endpointStats accumulates one endpoint's latencies and outcomes.
type endpointStats struct {
	mu        sync.Mutex
	latencies []time.Duration // successful (2xx) requests only
	shed      int             // 429: admission control working as designed
	degraded  int             // 503: a read-only store shedding writes
	errors    int             // anything else
}

type summary struct {
	cfg        config
	mix        []arm
	byEndpoint map[string]*endpointStats
	dropped    int // arrivals beyond max-outstanding, never sent
	offered    int
	elapsed    time.Duration
	vertices   int
	edges      int
	nnz        int
	workers    int
}

func run(cfg config) (*summary, error) {
	if cfg.rate <= 0 || cfg.duration <= 0 {
		return nil, fmt.Errorf("rate and duration must be positive")
	}
	if cfg.zipfS <= 1 {
		return nil, fmt.Errorf("zipf-s must be > 1, got %v", cfg.zipfS)
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	sum := &summary{cfg: cfg, mix: mix, byEndpoint: map[string]*endpointStats{}, workers: runtime.GOMAXPROCS(0)}
	if cfg.ingestWeight > 0 {
		sum.mix = append(append([]arm{}, mix...), arm{"/ingest", cfg.ingestWeight})
	}
	for _, m := range sum.mix {
		sum.byEndpoint[m.name] = &endpointStats{}
	}

	base := cfg.target
	var sources []string
	if base == "" {
		srv, info, err := selfServe(cfg, rng)
		if err != nil {
			return nil, err
		}
		defer srv.close()
		base = srv.url
		sources = info.sources
		sum.vertices, sum.edges, sum.nnz = info.vertices, info.edges, info.nnz
	} else {
		// Against a live deployment the vertex space is whatever the
		// server ingested; synthesize the same R-MAT key names.
		for i := 0; i < 1<<cfg.scale; i++ {
			sources = append(sources, fmt.Sprintf("v%06d", i))
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no source vertices to query")
	}

	// Zipf over popularity rank: rank 0 is the highest-out-degree vertex,
	// so the workload's hot set is the graph's hot set.
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(sources)-1))
	pick := func() string { return sources[zipf.Uint64()] }

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.maxOut,
		MaxIdleConnsPerHost: cfg.maxOut,
	}}

	var wg sync.WaitGroup
	tokens := make(chan struct{}, cfg.maxOut)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()

	// The arrival process owns the randomness; worker goroutines only
	// execute the request they were handed.
	weightTotal := 0
	for _, m := range sum.mix {
		weightTotal += m.weight
	}
	for time.Now().Before(deadline) {
		// Exponential inter-arrival: a Poisson process at cfg.rate.
		time.Sleep(time.Duration(rng.ExpFloat64() / cfg.rate * float64(time.Second)))
		sum.offered++
		w := rng.Intn(weightTotal)
		endpoint := sum.mix[0].name
		for _, m := range sum.mix {
			if w < m.weight {
				endpoint = m.name
				break
			}
			w -= m.weight
		}
		method, url, body := "GET", "", ""
		switch endpoint {
		case "/at":
			url = fmt.Sprintf("%s/at?src=%s&dst=%s", base, pick(), pick())
		case "/row":
			url = fmt.Sprintf("%s/row?src=%s", base, pick())
		case "/bfs":
			url = fmt.Sprintf("%s/bfs?src=%s", base, pick())
		case "/pagerank":
			url = fmt.Sprintf("%s/pagerank?iters=50", base)
		case "/batch":
			method, url, body = "POST", base+"/batch", batchBody(cfg.batchOps, pick)
		case "/ingest":
			method, url, body = "POST", base+"/ingest", ingestBody(cfg.batchOps, pick)
		}
		select {
		case tokens <- struct{}{}:
		default:
			sum.dropped++ // open model: late is worse than lost
			continue
		}
		wg.Add(1)
		go func(endpoint, method, url, body string) {
			defer wg.Done()
			defer func() { <-tokens }()
			fire(client, sum.byEndpoint[endpoint], method, url, body)
		}(endpoint, method, url, body)
	}
	wg.Wait()
	sum.elapsed = time.Since(start)
	return sum, nil
}

// batchBody builds a POST /batch payload of point reads, rows, and one
// BFS — the shape that amortizes a single pinned snapshot.
func batchBody(n int, pick func() string) string {
	var ops []map[string]any
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ops = append(ops, map[string]any{"op": "at", "src": pick(), "dst": pick()})
		case 1:
			ops = append(ops, map[string]any{"op": "row", "src": pick()})
		default:
			ops = append(ops, map[string]any{"op": "bfs", "src": pick()})
		}
	}
	raw, _ := json.Marshal(map[string]any{"ops": ops})
	return string(raw)
}

// ingestBody builds a POST /ingest payload of unkeyed edges between
// zipf-picked vertices (keys auto-assign server-side, so concurrent
// write arms compose).
func ingestBody(n int, pick func() string) string {
	edges := make([]map[string]any, n)
	for i := range edges {
		edges[i] = map[string]any{"src": pick(), "dst": pick()}
	}
	raw, _ := json.Marshal(map[string]any{"edges": edges})
	return string(raw)
}

// fire executes one request and records it. 404 (a zipf-picked vertex
// the ingest never saw as a source) counts as success for latency
// purposes — the server did its work; 429 is shed (admission control);
// 503 is degraded (a read-only store shedding writes) and counted
// distinctly so a fault-injection run can diff shed rates; other
// non-2xx are errors.
func fire(client *http.Client, st *endpointStats, method, url, body string) {
	t0 := time.Now()
	var resp *http.Response
	var err error
	if method == "POST" {
		resp, err = client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	} else {
		resp, err = client.Get(url)
	}
	if err != nil {
		st.mu.Lock()
		st.errors++
		st.mu.Unlock()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)

	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		st.shed++
	case resp.StatusCode == http.StatusServiceUnavailable:
		st.degraded++
	case resp.StatusCode < 300 || resp.StatusCode == http.StatusNotFound:
		st.latencies = append(st.latencies, lat)
	default:
		st.errors++
	}
}

// ---- self-serve mode ----

type selfServer struct {
	url  string
	http *http.Server
	ing  *core.Ingest
	ln   net.Listener
}

func (s *selfServer) close() {
	s.http.Close()
	s.ing.Close()
}

type graphInfo struct {
	sources  []string
	vertices int
	edges    int
	nnz      int
}

// selfServe builds the in-process target: R-MAT ingest behind the same
// front door cmd/adjserve mounts.
func selfServe(cfg config, rng *rand.Rand) (*selfServer, graphInfo, error) {
	var info graphInfo
	ing, err := core.NewIngest(core.IngestOptions{
		Semiring:  "+.*",
		BatchSize: 1024,
		Shards:    cfg.shards,
	})
	if err != nil {
		return nil, info, err
	}
	g := dataset.RMAT(rng, cfg.scale, cfg.edgeFactor)
	outDeg := map[string]int{}
	for _, e := range g.Edges() {
		if err := ing.Add(stream.Weighted(e.Key, e.Src, e.Dst, 1.0, 1.0)); err != nil {
			ing.Close()
			return nil, info, err
		}
		outDeg[e.Src]++
		info.edges++
	}
	if _, err := ing.Snapshot(); err != nil {
		ing.Close()
		return nil, info, err
	}

	// Popularity rank = out-degree rank (ties broken by key for
	// determinism): the workload skew tracks the graph skew.
	for src := range outDeg {
		info.sources = append(info.sources, src)
	}
	sort.Slice(info.sources, func(i, j int) bool {
		a, b := info.sources[i], info.sources[j]
		if outDeg[a] != outDeg[b] {
			return outDeg[a] > outDeg[b]
		}
		return a < b
	})
	info.vertices = len(info.sources)
	info.nnz = ing.Store().Stats().AdjNNZ

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ing.Close()
		return nil, info, err
	}
	hs := &http.Server{Handler: serve.New(ing, serve.Options{})}
	go hs.Serve(ln)
	return &selfServer{
		url:  "http://" + ln.Addr().String(),
		http: hs,
		ing:  ing,
		ln:   ln,
	}, info, nil
}

// ---- reporting ----

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

type endpointResult struct {
	endpoint                   string
	count, shed, degraded, err int
	p50, p99, p999             time.Duration
}

func (s *summary) results() []endpointResult {
	var out []endpointResult
	for _, m := range s.mix {
		st := s.byEndpoint[m.name]
		sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
		out = append(out, endpointResult{
			endpoint: m.name,
			count:    len(st.latencies),
			shed:     st.shed,
			degraded: st.degraded,
			err:      st.errors,
			p50:      percentile(st.latencies, 0.50),
			p99:      percentile(st.latencies, 0.99),
			p999:     percentile(st.latencies, 0.999),
		})
	}
	return out
}

func (s *summary) table() string {
	var rows [][]string
	total, shed, degraded := 0, 0, 0
	for _, r := range s.results() {
		rows = append(rows, []string{
			r.endpoint,
			fmt.Sprintf("%d", r.count),
			fmt.Sprintf("%d", r.shed),
			fmt.Sprintf("%d", r.degraded),
			fmt.Sprintf("%d", r.err),
			r.p50.String(),
			r.p99.String(),
			r.p999.String(),
		})
		total += r.count + r.shed + r.degraded + r.err
		shed += r.shed
		degraded += r.degraded
	}
	head := fmt.Sprintf(
		"offered %d requests over %s (%.0f/s target), %d answered, %d shed (429), %d degraded (503), %d dropped client-side\n",
		s.offered, s.elapsed.Round(time.Millisecond), s.cfg.rate, total, shed, degraded, s.dropped)
	return head + render.Columns([]string{"endpoint", "ok", "shed", "503", "err", "p50", "p99", "p999"}, rows)
}

// jsonRow mirrors the graphbench baseline schema so cmd/benchdiff can
// diff serving latency like build benchmarks; build_ns carries p50 for
// the shared delta column, the explicit percentile fields carry the
// full curve.
type jsonRow struct {
	Generator string `json:"generator"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	Semiring  string `json:"semiring"`
	Backend   string `json:"backend"`
	Workers   int    `json:"workers"`
	NNZ       int    `json:"nnz"`
	BuildNs   int64  `json:"build_ns"`
	AllocsOp  int64  `json:"allocs_per_op"`
	BytesOp   int64  `json:"bytes_per_op"`
	P50Ns     int64  `json:"p50_ns"`
	P99Ns     int64  `json:"p99_ns"`
	P999Ns    int64  `json:"p999_ns"`
	Requests  int    `json:"requests"`
	Shed      int    `json:"shed"`
	Degraded  int    `json:"degraded"`
}

type jsonBaseline struct {
	Timestamp  string    `json:"timestamp"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Rows       []jsonRow `json:"rows"`
}

func (s *summary) writeJSON(path string, now time.Time) error {
	b := jsonBaseline{
		Timestamp:  now.Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       s.cfg.seed,
	}
	gen := fmt.Sprintf("serve-rmat-s%d", s.cfg.scale)
	for _, r := range s.results() {
		b.Rows = append(b.Rows, jsonRow{
			Generator: gen,
			Vertices:  s.vertices,
			Edges:     s.edges,
			Semiring:  "+.*",
			Backend:   r.endpoint,
			Workers:   s.workers,
			NNZ:       s.nnz,
			BuildNs:   r.p50.Nanoseconds(),
			P50Ns:     r.p50.Nanoseconds(),
			P99Ns:     r.p99.Nanoseconds(),
			P999Ns:    r.p999.Nanoseconds(),
			Requests:  r.count,
			Shed:      r.shed,
			Degraded:  r.degraded,
		})
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
