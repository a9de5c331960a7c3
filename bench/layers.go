package main

// This file is the only place the benchmark reaches below adjserve's
// flags, its HTTP endpoints and the root facade. The traced replay
// calls each layer's public functions directly, so what it may call is
// kept short and stable on purpose — later changes may rewrite the
// layers but not this directory, and it must still compile:
//
//	core.NewIngest, Ingest.{AppendBatch, Snapshot, StorageHealth, Close}
//	serve.New, Server.ServeHTTP
//	algo.FromArray, Graph.{BFSLevels, SSSP, PageRank}
//	assoc.Mul, Array.{At, Transpose, NNZ, SubRef} with keys.Range
//	keys.NewInterner, Interner.InternBatch
//	the iofault.FS seam (fs.go)
//
// bench_test.go checks the imports and greps for what is off limits.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"adjarray"
	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/keys"
	"adjarray/internal/serve"
)

// Depths of the replay. Each owns an identically configured ingest, so
// a scripted write applies exactly once per depth.
const (
	depthSocket  = "L0" // a real loopback socket in front of serve.Server
	depthHandler = "L1" // serve.Server.ServeHTTP with a recorder
	depthDirect  = "L2" // direct calls into each layer
	// Twins isolate what the direct depth cannot call.
	depthHandler1 = "L1.1sh" // mixed_rw: the handler depth on Shards: 1
	depthMemory   = "L2.mem" // ingest_durable: the direct depth without a data directory
)

// traced runs the traced replay of o's workload and adds the per-layer
// metrics to o.Values. The spans go to spanFile.
func traced(ws *workspace, o *outcome, seed int64, sz sizes, spanFile string) error {
	t := newTracer()
	var err error
	switch o.Workload {
	case wlConstruct:
		err = traceConstruct(t, o, seed, sz)
	case wlIngest:
		err = traceIngest(ws, t, o, seed, sz)
	case wlStatic:
		err = traceQueries(t, o, staticScript(seed, sz), 1)
	case wlMixed:
		err = traceQueries(t, o, mixedScript(seed, sz), 2)
	}
	if err != nil {
		return err
	}
	tr := t.tree()
	share, first := tr.wellFormedShare()
	fmt.Printf("\ntrace: %d spans of %d requests → %s; %.1f%% of span trees well formed", len(tr.spans), len(tr.reqs), spanFile, 100*share)
	if first != nil {
		fmt.Printf(" (first violation: %v)", first)
	}
	fmt.Println()
	if share < 0.95 {
		o.op(fmt.Errorf("only %.1f%% of span trees are well formed: %w", 100*share, first))
	}
	o.phase("traced replay")
	return t.write(spanFile)
}

// ---- ingests and depths ----

type ingestConfig struct {
	shards          int
	dataDir         string      // "" = in-memory
	fs              *countingFS // nil = the real filesystem
	checkpointEvery int
}

// newIngest builds a core.Ingest the way the measured child's flags do.
func newIngest(cfg ingestConfig) (*core.Ingest, error) {
	opt := core.IngestOptions{Semiring: "+.*", BatchSize: 512, Shards: cfg.shards, DataDir: cfg.dataDir}
	if cfg.dataDir != "" {
		opt.Durable.CheckpointEvery = cfg.checkpointEvery
		if cfg.fs != nil {
			opt.Durable.FS = cfg.fs
		}
	}
	return core.NewIngest(opt)
}

func streamEdges(es []edge) []adjarray.StreamEdge[float64] {
	out := make([]adjarray.StreamEdge[float64], len(es))
	for i, e := range es {
		out[i] = adjarray.StreamEdge[float64]{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// preload appends the workload's preload graph in the child's batch
// size and materializes it.
func preload(ing *core.Ingest, edges []edge) error {
	const batch = 512
	for lo := 0; lo < len(edges); lo += batch {
		if err := ing.AppendBatch(streamEdges(edges[lo:min(lo+batch, len(edges))])); err != nil {
			return err
		}
	}
	_, err := ing.Snapshot()
	return err
}

// depth replays one request at one depth, under a root span.
type depth interface {
	name() string
	replay(t *tracer, index int, rq *request) error
	close() error
}

// socketDepth is the whole serving path in-process: listener, net/http
// server, serve.Server, and a one-connection client.
type socketDepth struct {
	ing    *core.Ingest
	srv    *http.Server
	client *conn
	served chan error
}

func newSocketDepth(ing *core.Ingest) (*socketDepth, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &socketDepth{ing: ing, srv: &http.Server{Handler: serve.New(ing, serve.Options{})}, served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = newConn("http://" + ln.Addr().String())
	return d, nil
}

func (d *socketDepth) name() string { return depthSocket }

func (d *socketDepth) replay(t *tracer, index int, rq *request) (err error) {
	req := t.request(depthSocket, index, rq.Kind)
	t.span(req, depthSocket+"/"+rq.Kind.String(), func() { _, _, err = d.client.do(rq) })
	return err
}

func (d *socketDepth) close() error {
	d.client.close()
	err := d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.ing.Close(); err == nil {
		err = cerr
	}
	return err
}

// handlerDepth is serve.Server.ServeHTTP with a recorder: the socket
// depth minus the network and net/http.
type handlerDepth struct {
	label string
	ing   *core.Ingest
	h     http.Handler
}

func newHandlerDepth(label string, ing *core.Ingest) *handlerDepth {
	return &handlerDepth{label: label, ing: ing, h: serve.New(ing, serve.Options{})}
}

func (d *handlerDepth) name() string { return d.label }

func (d *handlerDepth) replay(t *tracer, index int, rq *request) error {
	req := t.request(d.label, index, rq.Kind)
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	hr := httptest.NewRequest(rq.Method, rq.Path, body)
	rec := httptest.NewRecorder()
	t.span(req, d.label+"/"+rq.Kind.String(), func() { d.h.ServeHTTP(rec, hr) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s %s: status %d: %.80s", d.label, rq.Method, rq.Path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

func (d *handlerDepth) close() error { return d.ing.Close() }

// directDepth answers a request by calling the layers itself, the way
// serve's handlers do, one span per call.
type directDepth struct {
	label string
	ing   *core.Ingest
	// The serving layer keeps one algo.Graph per epoch; so does this.
	graph      *algo.Graph
	graphEpoch int
	dirty      bool // an append happened since the last Snapshot
	// probeAllocs asks for a runtime.MemStats delta around each
	// AppendBatch (taken outside the spans).
	probeAllocs   bool
	allocs, bytes []float64
}

func (d *directDepth) name() string { return d.label }

func (d *directDepth) close() error { return d.ing.Close() }

func (d *directDepth) replay(t *tracer, index int, rq *request) (err error) {
	req := t.request(d.label, index, rq.Kind)
	if rq.Kind == opIngest {
		return d.appendBatch(t, req, rq)
	}
	t.span(req, d.label+"/"+rq.Kind.String(), func() { err = d.read(t, req, rq) })
	return err
}

func (d *directDepth) appendBatch(t *tracer, req int32, rq *request) (err error) {
	batch := streamEdges(rq.Edges)
	var before, after runtime.MemStats
	if d.probeAllocs {
		runtime.ReadMemStats(&before)
	}
	t.span(req, d.label+"/ingest", func() {
		t.span(req, "stream.append", func() { err = d.ing.AppendBatch(batch) })
	})
	if d.probeAllocs {
		runtime.ReadMemStats(&after)
		d.allocs = append(d.allocs, float64(after.Mallocs-before.Mallocs))
		d.bytes = append(d.bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	d.dirty = true
	return err
}

// snapshot pins the adjacency, as every read handler does first.
func (d *directDepth) snapshot(t *tracer, req int32) (adj *assoc.Array[float64], epoch int, err error) {
	name := "stream.snapshot_clean"
	if d.dirty {
		name = "stream.snapshot_dirty"
	}
	t.span(req, name, func() {
		snap, serr := d.ing.Snapshot()
		adj, epoch, err = snap.Adjacency, snap.Epoch, serr
	})
	d.dirty = false
	return adj, epoch, err
}

func (d *directDepth) graphFor(t *tracer, req int32, adj *assoc.Array[float64], epoch int) (*algo.Graph, error) {
	if d.graph != nil && d.graphEpoch == epoch {
		return d.graph, nil
	}
	var err error
	t.span(req, "algo.build", func() { d.graph, err = algo.FromArray(adj) })
	d.graphEpoch = epoch
	return d.graph, err
}

func (d *directDepth) read(t *tracer, req int32, rq *request) error {
	adj, epoch, err := d.snapshot(t, req)
	if err != nil {
		return err
	}
	if rq.Kind == opBatch {
		for i := range rq.Sub {
			if err := d.readOn(t, req, &rq.Sub[i], adj, epoch); err != nil {
				return err
			}
		}
		return nil
	}
	return d.readOn(t, req, rq, adj, epoch)
}

// readOn answers one read against a pinned adjacency.
func (d *directDepth) readOn(t *tracer, req int32, rq *request, adj *assoc.Array[float64], epoch int) (err error) {
	switch rq.Kind {
	case opAt:
		t.span(req, "assoc.at", func() { adj.At(rq.Src, rq.Dst) })
		return nil
	case opRow:
		t.span(req, "assoc.row", func() { adj.SubRef(keys.Range{Lo: rq.Src, Hi: rq.Src}, nil).NNZ() })
		return nil
	}
	g, err := d.graphFor(t, req, adj, epoch)
	if err != nil {
		return err
	}
	switch rq.Kind {
	case opBFS:
		t.span(req, "algo.bfs", func() { _, err = g.BFSLevels(rq.Src) })
	case opSSSP:
		t.span(req, "algo.sssp", func() { _, err = g.SSSP(rq.Src) })
	case opPageRank:
		t.span(req, "algo.pagerank", func() { _, _, err = g.PageRank(0.85, 1e-9, pageRankIters) })
	}
	return err
}

// appendOnly is a depth that takes the script's writes and nothing
// else: the allocation probe of a shard count the direct depth does not
// run on.
type appendOnly struct{ directDepth }

func (d *appendOnly) replay(t *tracer, index int, rq *request) error {
	if rq.Kind != opIngest {
		return nil
	}
	return d.appendBatch(t, t.request(d.label, index, rq.Kind), rq)
}

// flatten orders the script's requests the way two connections would
// interleave them: one unit from each lane in turn.
func flatten(lanes [][]unit) []request {
	var out []request
	for i := 0; ; i++ {
		took := false
		for _, lane := range lanes {
			if i < len(lane) {
				out = append(out, lane[i]...)
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// replayAll sends every request through every depth, request by
// request, so machine noise hits all depths of a request alike.
func replayAll(t *tracer, flat []request, depths []depth) error {
	for i := range flat {
		rq := &flat[i]
		for _, d := range depths {
			if err := d.replay(t, i, rq); err != nil {
				return fmt.Errorf("traced replay, request %d at %s: %w", i, d.name(), err)
			}
		}
	}
	return nil
}

func closeAll(depths []depth) error {
	var first error
	for _, d := range depths {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- analysis ----

// replayed is a finished replay ready for questions.
type replayed struct {
	tr   *tree
	by   map[string]map[int]int32
	flat []request
}

func newReplayed(t *tracer, flat []request) *replayed {
	tr := t.tree()
	return &replayed{tr: tr, by: tr.byDepth(), flat: flat}
}

// indexes of the script requests that satisfy keep.
func (r *replayed) indexes(keep func(rq *request) bool) []int {
	var out []int
	for i := range r.flat {
		if keep(&r.flat[i]) {
			out = append(out, i)
		}
	}
	return out
}

func ofKind(k opKind) func(*request) bool {
	return func(rq *request) bool { return rq.Kind == k }
}

// root durations of the given script requests at a depth.
func (r *replayed) roots(depth string, idx []int) []time.Duration {
	out := make([]time.Duration, 0, len(idx))
	for _, i := range idx {
		if req, ok := r.by[depth][i]; ok {
			out = append(out, r.tr.rootDur(req))
		}
	}
	return out
}

// between is the per-request difference outer − inner: the layer that
// sits between two depths.
func (r *replayed) between(outer, inner string, idx []int) []time.Duration {
	out := make([]time.Duration, 0, len(idx))
	for _, i := range idx {
		a, okA := r.by[outer][i]
		b, okB := r.by[inner][i]
		if okA && okB {
			out = append(out, r.tr.rootDur(a)-r.tr.rootDur(b))
		}
	}
	return out
}

// selfOf is the per-request self time of one layer at a depth.
func (r *replayed) selfOf(depth, layer string, idx []int) []time.Duration {
	out := make([]time.Duration, 0, len(idx))
	for _, i := range idx {
		if req, ok := r.by[depth][i]; ok {
			out = append(out, r.tr.layerSelf(req)[layer])
		}
	}
	return out
}

// column is one layer of a breakdown: a label and how to get its
// per-request times for a set of script requests.
type column struct {
	label  string
	series func(idx []int) []time.Duration
}

// table builds the "where the time goes" table over the request kinds
// the script holds.
func (r *replayed) table(cols []column) *breakdown {
	b := &breakdown{}
	for _, c := range cols {
		b.Layers = append(b.Layers, c.label)
	}
	for k := opKind(0); k < numKinds; k++ {
		idx := r.indexes(ofKind(k))
		if len(idx) == 0 {
			continue
		}
		row := breakdownRow{Class: k.String(), N: len(idx), Self: map[string]float64{},
			L0: medianDur(r.roots(depthSocket, idx), millis)}
		for _, c := range cols {
			row.Self[c.label] = medianDur(c.series(idx), millis)
		}
		b.Rows = append(b.Rows, row)
	}
	b.finish()
	return b
}

// minSumRequests is how many replayed requests the layer-sum check needs
// before it counts: the quarter replay of a -seconds 10 script has over
// four hundred, the smoke test's toy script a few dozen, too few medians
// to hold to 15%.
const minSumRequests = 200

// checkSum says whether, over the whole workload, the layers add up to
// the socket-to-socket time within 15%; when they do not, the attribution
// above it is not to be trusted, and the run counts a failed op. (Single
// classes may be further off — the medians of differences need not add up
// to the difference of medians — and are only printed.)
func checkSum(b *breakdown) error {
	sum, whole := b.Total.Sum, b.Total.L0
	fmt.Printf("  over all %d requests the layers' self times sum to %.3f ms of the socket-to-socket %.3f ms (%.0f%%)\n", b.Total.N, sum, whole, 100*sum/whole)
	if dev := sum/whole - 1; b.Total.N >= minSumRequests && (dev > 0.15 || dev < -0.15) {
		return fmt.Errorf("the layers' self times sum to %.3f ms, more than 15%% off the socket-to-socket %.3f ms", sum, whole)
	}
	return nil
}

// readMetrics fills the per-layer metrics every serving replay has.
func (r *replayed) readMetrics(o *outcome, handler, direct string) {
	v := o.Values
	all := r.indexes(func(*request) bool { return true })
	reads := r.indexes(func(rq *request) bool { return rq.Kind.isRead() })
	v["net.ms_per_request"] = medianDur(r.between(depthSocket, depthHandler, all), millis)
	if len(reads) > 0 {
		v["serve.self_ms_per_read"] = medianDur(r.between(handler, direct, reads), millis)
	}
	for _, s := range []struct {
		kind opKind
		name string
		unit func(time.Duration) float64
	}{
		{opAt, "serve.self_us_at", micros}, {opRow, "serve.self_us_row", micros},
		{opBFS, "serve.self_ms_bfs", millis}, {opPageRank, "serve.self_ms_pagerank", millis},
	} {
		if idx := r.indexes(ofKind(s.kind)); len(idx) > 0 {
			v[s.name] = medianDur(r.between(handler, direct, idx), s.unit)
		}
	}
	if idx := r.indexes(ofKind(opIngest)); len(idx) > 0 {
		v["serve.ingest_decode_ms"] = medianDur(r.between(handler, direct, idx), millis)
	}
	for name, m := range map[string]struct {
		metric string
		unit   func(time.Duration) float64
	}{
		"stream.snapshot_dirty": {"stream.snapshot_dirty_ms", millis},
		"stream.snapshot_clean": {"stream.snapshot_clean_us", micros},
		"algo.build":            {"algo.build_ms", millis},
		"algo.bfs":              {"algo.bfs_ms", millis},
		"algo.sssp":             {"algo.sssp_ms", millis},
		"algo.pagerank":         {"algo.pagerank_ms", millis},
		"assoc.at":              {"assoc.at_us", micros},
		"assoc.row":             {"assoc.row_us", micros},
	} {
		if ds := r.tr.named(name); len(ds) > 0 {
			v[m.metric] = medianDur(ds, m.unit)
		}
	}
}

// appendMetrics fills the stream.* append metrics from the probes.
func appendMetrics(o *outcome, one, two *directDepth, edgesPerBatch int, appendTimes []time.Duration) {
	v := o.Values
	v["stream.append_us_per_edge"] = medianDur(appendTimes, micros) / float64(edgesPerBatch)
	v["stream.allocs_per_append"], v["stream.bytes_per_append"] = median(one.allocs), median(one.bytes)
	v["stream.allocs_per_append_2sh"], v["stream.bytes_per_append_2sh"] = median(two.allocs), median(two.bytes)
	fmt.Printf("\nallocations per AppendBatch of %d edges: Shards 1: %.0f allocs, %.0f B; Shards 2: %.0f allocs, %.0f B\n",
		edgesPerBatch, v["stream.allocs_per_append"], v["stream.bytes_per_append"],
		v["stream.allocs_per_append_2sh"], v["stream.bytes_per_append_2sh"])
}

// ---- query_static and mixed_rw ----

// traceQueries replays a preloaded serving script. With shards == 2 the
// direct depth still runs on one shard — Ingest.Snapshot on a sharded
// ingest also merges the incidence logs, which no handler asks for — and
// a Shards: 1 twin of the handler depth isolates the shard layer.
func traceQueries(t *tracer, o *outcome, sc *script, shards int) error {
	mem := func(shards int) (*core.Ingest, error) {
		ing, err := newIngest(ingestConfig{shards: shards})
		if err != nil {
			return nil, err
		}
		return ing, preload(ing, sc.Preload)
	}
	var depths []depth
	defer func() { closeAll(depths) }() //nolint:errcheck // in-memory ingests: Close is a no-op
	ing0, err := mem(shards)
	if err != nil {
		return err
	}
	sock, err := newSocketDepth(ing0)
	if err != nil {
		return err
	}
	depths = append(depths, sock)
	ing1, err := mem(shards)
	if err != nil {
		return err
	}
	depths = append(depths, newHandlerDepth(depthHandler, ing1))
	handler := depthHandler
	if shards > 1 {
		ing1b, err := mem(1)
		if err != nil {
			return err
		}
		depths = append(depths, newHandlerDepth(depthHandler1, ing1b))
		handler = depthHandler1
	}
	ing2, err := mem(1)
	if err != nil {
		return err
	}
	direct := &directDepth{label: depthDirect, ing: ing2, probeAllocs: true}
	depths = append(depths, direct)
	var two *appendOnly
	if shards > 1 {
		ing2b, err := mem(2)
		if err != nil {
			return err
		}
		two = &appendOnly{directDepth{label: "L2.2sh", ing: ing2b, probeAllocs: true}}
		depths = append(depths, two)
	}

	flat := flatten(sc.Lanes)
	if err := replayAll(t, flat, depths); err != nil {
		return err
	}
	r := newReplayed(t, flat)
	r.readMetrics(o, handler, depthDirect)

	cols := []column{{"net", func(idx []int) []time.Duration { return r.between(depthSocket, depthHandler, idx) }}}
	if shards > 1 {
		cols = append(cols, column{"shard", func(idx []int) []time.Duration { return r.between(depthHandler, depthHandler1, idx) }})
		probes := r.indexes(func(rq *request) bool { return rq.ReadYourWrite })
		o.Values["shard.overhead_ms_per_read"] = medianDur(r.between(depthHandler, depthHandler1, probes), millis)
		writes := r.indexes(ofKind(opIngest))
		o.Values["shard.overhead_us_per_append"] = medianDur(r.between(depthHandler, depthHandler1, writes), micros)
		appendMetrics(o, direct, &two.directDepth, len(flat[writes[0]].Edges), r.tr.named("stream.append"))
	}
	cols = append(cols, column{"serve", func(idx []int) []time.Duration { return r.between(handler, depthDirect, idx) }})
	for _, layer := range []string{"stream", "assoc", "algo", "bench"} {
		cols = append(cols, column{layer, func(idx []int) []time.Duration { return r.selfOf(depthDirect, layer, idx) }})
	}
	b := r.table(cols)
	b.print(o.Workload)
	o.op(checkSum(b))

	if o.Workload == wlStatic {
		atTraced := medianDur(r.roots(depthSocket, r.indexes(ofKind(opAt))), micros)
		if measured := o.Values["bench.at_p50_us"]; measured > 0 {
			o.Values["bench.trace_overhead_pct"] = 100 * (atTraced - measured) / measured
		}
		r.printTail(opAt, cols)
	}
	return nil
}

// printTail answers "what is different about the slow ones": the layer
// medians over all requests of a kind beside the same over the slowest
// of them (the tail percentile the sample supports).
func (r *replayed) printTail(kind opKind, cols []column) {
	idx := r.indexes(ofKind(kind))
	l0 := r.roots(depthSocket, idx)
	if len(l0) < 20 {
		return
	}
	cut, pct := tail(durations(l0, millis))
	var slow []int
	for j, i := range idx {
		if millis(l0[j]) >= cut {
			slow = append(slow, i)
		}
	}
	fmt.Printf("\n/%s: the median request beside the slowest (>= p%g, %d of %d), median ms per layer\n", kind, pct, len(slow), len(idx))
	fmt.Printf("  %-8s %9s", "", "L0")
	for _, c := range cols {
		fmt.Printf(" %9s", c.label)
	}
	fmt.Println()
	for _, part := range []struct {
		label string
		idx   []int
	}{{"all", idx}, {"slowest", slow}} {
		fmt.Printf("  %-8s %9.3f", part.label, medianDur(r.roots(depthSocket, part.idx), millis))
		for _, c := range cols {
			fmt.Printf(" %9.3f", medianDur(c.series(part.idx), millis))
		}
		fmt.Println()
	}
}

// ---- ingest_durable ----

// traceIngest replays the durable write path. Socket, handler and direct
// depths each own a data directory; the direct depth writes through the
// counting filesystem, and an in-memory twin of it isolates WAL + codec
// + filesystem as the difference.
func traceIngest(ws *workspace, t *tracer, o *outcome, seed int64, sz sizes) error {
	sc := ingestScript(seed, sz)
	durable := func(fs *countingFS) (*core.Ingest, string, error) {
		dir, err := ws.tempDir("trace-data-")
		if err != nil {
			return nil, "", err
		}
		ing, err := newIngest(ingestConfig{shards: 1, dataDir: dir, fs: fs, checkpointEvery: sz.CheckpointEvery})
		return ing, dir, err
	}
	var depths []depth
	closed := false
	defer func() {
		if !closed {
			closeAll(depths) //nolint:errcheck // already failing with another error
		}
	}()
	ing0, _, err := durable(nil)
	if err != nil {
		return err
	}
	sock, err := newSocketDepth(ing0)
	if err != nil {
		return err
	}
	depths = append(depths, sock)
	ing1, _, err := durable(nil)
	if err != nil {
		return err
	}
	depths = append(depths, newHandlerDepth(depthHandler, ing1))

	cfs := newCountingFS()
	// Filesystem calls become spans: those of the append path under the
	// call that caused them, those of a checkpoint (which runs on the
	// durable view's own goroutine) under a request of their own.
	ckptReq := map[int]int32{}
	cfs.observe = func(op fsOp) {
		if op.Checkpoint < 0 {
			if parent, req := t.current(); parent >= 0 {
				t.leaf(parent, req, "iofault."+op.Name, op.Start, op.End)
			}
			return
		}
		if _, ok := ckptReq[op.Checkpoint]; !ok {
			ckptReq[op.Checkpoint] = t.request("checkpoint", op.Checkpoint, opIngest)
		}
		t.leaf(-1, ckptReq[op.Checkpoint], "iofault."+op.Name, op.Start, op.End)
	}
	ing2, dir2, err := durable(cfs)
	if err != nil {
		return err
	}
	direct := &directDepth{label: depthDirect, ing: ing2}
	depths = append(depths, direct)
	mem1, err := newIngest(ingestConfig{shards: 1})
	if err != nil {
		return err
	}
	memory := &appendOnly{directDepth{label: depthMemory, ing: mem1, probeAllocs: true}}
	mem2, err := newIngest(ingestConfig{shards: 2})
	if err != nil {
		return err
	}
	two := &appendOnly{directDepth{label: "L2.2sh", ing: mem2, probeAllocs: true}}
	depths = append(depths, memory, two)

	flat := flatten(sc.Lanes)
	if err := replayAll(t, flat, depths); err != nil {
		return err
	}
	snap, err := ing2.Snapshot()
	if err != nil {
		return err
	}
	nnz := snap.Adjacency.NNZ()
	closed = true
	if err := closeAll(depths); err != nil {
		return err
	}
	// Checkpoint spans were recorded as parentless leaves of their own
	// request; give each request the one root a span tree needs.
	rootCheckpoints(t)

	r := newReplayed(t, flat)
	r.readMetrics(o, depthHandler, depthDirect)
	v := o.Values
	writes := r.indexes(ofKind(opIngest))
	edgesPerBatch := len(flat[writes[0]].Edges)
	edges := float64(len(writes) * edgesPerBatch)
	memAppend := r.roots(depthMemory, writes)
	appendMetrics(o, &memory.directDepth, &two.directDepth, edgesPerBatch, memAppend)

	// The WAL's own time: what the durable append costs beyond the
	// in-memory one and beyond the time inside the filesystem.
	durSelf := r.selfOf(depthDirect, "stream", writes) // append minus its filesystem children
	walSelf := make([]time.Duration, len(writes))
	for i := range writes {
		walSelf[i] = durSelf[i] - memAppend[i]
	}
	v["wal.self_us_per_batch"] = medianDur(walSelf, micros)

	appendPath, checkpoints, _ := cfs.snapshotCounts()
	batches := float64(len(writes))
	v["wal.log_bytes_per_edge"] = float64(appendPath.Bytes) / edges
	v["iofault.writes_per_batch"] = float64(appendPath.Writes) / batches
	v["iofault.syncs_per_batch"] = float64(appendPath.Syncs) / batches
	v["iofault.bytes_per_edge"] = float64(appendPath.Bytes+checkpoints.Bytes) / edges
	v["iofault.sync_ms_p50"] = medianDur(cfs.syncTimes, millis)
	v["iofault.write_ms_p50"] = medianDur(cfs.writeTimes, millis)
	var ckptBusy []time.Duration
	for _, c := range cfs.ckpts {
		ckptBusy = append(ckptBusy, c.Busy)
	}
	if n := len(cfs.ckpts); n > 0 {
		v["wal.checkpoint_ms"] = medianDur(ckptBusy, millis)
		v["wal.checkpoint_bytes_per_nnz"] = float64(cfs.ckpts[n-1].Bytes) / float64(nnz)
		fmt.Printf("\ncheckpoints: %d written; the last put %d bytes on disk for %d stored entries (%.1f B/nnz) in %.1f ms of filesystem time\n",
			n, cfs.ckpts[n-1].Bytes, nnz, v["wal.checkpoint_bytes_per_nnz"], millis(cfs.ckpts[n-1].Busy))
	}

	v["keys.intern_ns_per_key"] = internCost(flat)
	replay, err := replayCost(ws, dir2, sc.Tail, sz.CheckpointEvery)
	if err != nil {
		return err
	}
	v["wal.replay_ms_per_batch"] = replay

	cols := []column{
		{"net", func(idx []int) []time.Duration { return r.between(depthSocket, depthHandler, idx) }},
		{"serve", func(idx []int) []time.Duration { return r.between(depthHandler, depthDirect, idx) }},
		{"stream", func(idx []int) []time.Duration {
			// Writes: the in-memory twin's append. Reads: the direct
			// depth's own stream spans (the snapshot).
			if len(idx) > 0 && flat[idx[0]].Kind == opIngest {
				return r.roots(depthMemory, idx)
			}
			return r.selfOf(depthDirect, "stream", idx)
		}},
		{"wal", func(idx []int) []time.Duration {
			if len(idx) > 0 && flat[idx[0]].Kind == opIngest {
				return walSelf
			}
			return make([]time.Duration, len(idx))
		}},
		{"iofault", func(idx []int) []time.Duration { return r.selfOf(depthDirect, "iofault", idx) }},
		{"assoc", func(idx []int) []time.Duration { return r.selfOf(depthDirect, "assoc", idx) }},
		{"bench", func(idx []int) []time.Duration { return r.selfOf(depthDirect, "bench", idx) }},
	}
	b := r.table(cols)
	b.print(o.Workload)
	o.op(checkSum(b))
	return nil
}

// rootCheckpoints wraps each checkpoint's filesystem spans in one root
// span from the first's start to the last's end.
func rootCheckpoints(t *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type extent struct {
		start, end int64
		ids        []int32
	}
	byReq := map[int32]*extent{}
	for _, s := range t.spans {
		if s.Parent >= 0 || t.reqs[s.Req].Depth != "checkpoint" {
			continue
		}
		e := byReq[s.Req]
		if e == nil {
			e = &extent{start: s.Start, end: s.End}
			byReq[s.Req] = e
		}
		e.start, e.end = min(e.start, s.Start), max(e.end, s.End)
		e.ids = append(e.ids, s.ID)
	}
	reqs := make([]int32, 0, len(byReq))
	for req := range byReq {
		reqs = append(reqs, req)
	}
	slices.Sort(reqs)
	for _, req := range reqs {
		e := byReq[req]
		root := int32(len(t.spans))
		t.spans = append(t.spans, span{ID: root, Parent: -1, Req: req, Name: "wal.checkpoint", Start: e.start, End: e.end})
		for _, id := range e.ids {
			t.spans[id].Parent = root
		}
	}
}

// internCost is keys.intern_ns_per_key: the script's source and
// destination keys through two fresh interners, batch by batch, as the
// view's append does.
func internCost(flat []request) float64 {
	srcIn, dstIn := keys.NewInterner(), keys.NewInterner()
	var ks []string
	var ids []int32
	var took time.Duration
	n := 0
	for i := range flat {
		rq := &flat[i]
		if rq.Kind != opIngest {
			continue
		}
		ks, ids = ks[:0], ids[:0]
		for _, e := range rq.Edges {
			ks = append(ks, e.Src, e.Dst)
			ids = append(ids, 0)
		}
		srcs, dsts := ks[:len(ks)/2], ks[len(ks)/2:]
		for j, e := range rq.Edges {
			srcs[j], dsts[j] = e.Src, e.Dst
		}
		start := time.Now()
		srcIn.InternBatch(srcs, ids)
		dstIn.InternBatch(dsts, ids)
		took += time.Since(start)
		n += len(ks)
	}
	if n == 0 {
		return 0
	}
	return float64(took.Nanoseconds()) / float64(n)
}

// replayCost is wal.replay_ms_per_batch. dir holds a cleanly closed
// store. Reopening it is the cost of loading the covering checkpoint;
// reopening a copy taken after a tail of batches was appended (and
// fsynced, but not checkpointed) adds exactly that tail's replay.
func replayCost(ws *workspace, dir string, tail []unit, checkpointEvery int) (float64, error) {
	open := func(dir string) (*core.Ingest, time.Duration, error) {
		start := time.Now()
		ing, err := newIngest(ingestConfig{shards: 1, dataDir: dir, checkpointEvery: checkpointEvery})
		return ing, time.Since(start), err
	}
	ing, clean, err := open(dir)
	if err != nil {
		return 0, err
	}
	batches := 0
	for _, u := range tail {
		for i := range u {
			if u[i].Kind == opIngest {
				if err := ing.AppendBatch(streamEdges(u[i].Edges)); err != nil {
					ing.Close() //nolint:errcheck // already failing
					return 0, err
				}
				batches++
			}
		}
	}
	if h, _ := ing.StorageHealth(); h.Err != "" {
		ing.Close() //nolint:errcheck // already failing
		return 0, fmt.Errorf("traced store unhealthy before the crash image: %s", h.Err)
	}
	// The crash image: every acknowledged batch is fsynced, so a copy
	// of the directory now is what a power cut would leave.
	image, err := ws.tempDir("trace-crash-")
	if err != nil {
		return 0, err
	}
	if err := copyDir(dir, image); err != nil {
		return 0, err
	}
	if err := ing.Close(); err != nil {
		return 0, err
	}
	ing, withTail, err := open(image)
	if err != nil {
		return 0, err
	}
	if err := ing.Close(); err != nil {
		return 0, err
	}
	if batches == 0 {
		return 0, nil
	}
	return millis(withTail-clean) / float64(batches), nil
}

func copyDir(from, to string) error {
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- construct ----

// traceConstruct replays the first quarter of the construct loops at
// two depths: the facade call, and the two calls the facade makes.
func traceConstruct(t *tracer, o *outcome, seed int64, sz sizes) error {
	in := constructScript(seed, sz)
	var cg *constructGraph
	var err error
	t.span(t.request("setup", 0, opIngest), "graph.setup", func() { cg, err = buildConstructGraph(in) })
	if err != nil {
		return err
	}
	if err := cg.addWeighted(in); err != nil {
		return err
	}
	v := o.Values
	v["graph.incidence_ms"] = millis(cg.incidenceTook)

	loops := cg.loops(sz)
	facade := map[string][]time.Duration{}
	transposes, muls := map[string][]time.Duration{}, map[string][]time.Duration{}
	allocs, mbs := map[string][]float64{}, map[string][]float64{}
	index := 0
	for _, l := range loops {
		for i := 0; i < l.n; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d := t.span(t.request(depthHandler, index, opIngest), "L1/adjacency."+l.label, func() {
				_, err = adjarray.Adjacency(l.eout, l.ein, l.ops, l.opt)
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			facade[l.label] = append(facade[l.label], d)
			allocs[l.label] = append(allocs[l.label], float64(after.Mallocs-before.Mallocs))
			mbs[l.label] = append(mbs[l.label], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

			req := t.request(depthDirect, index, opIngest)
			t.span(req, "L2/adjacency."+l.label, func() {
				var eoutT, a *assoc.Array[float64]
				td := t.span(req, "assoc.transpose", func() { eoutT = l.eout.Transpose() })
				md := t.span(req, "assoc.mul", func() { a, err = assoc.Mul(eoutT, l.ein, l.ops, l.opt) })
				transposes[l.label], muls[l.label] = append(transposes[l.label], td), append(muls[l.label], md)
				if err == nil && l.label == "serial" {
					v["sparse.out_nnz"] = float64(a.NNZ())
				}
			})
			if err != nil {
				return err
			}
			index++
		}
	}
	v["assoc.transpose_ms"] = medianDur(transposes["serial"], millis)
	v["assoc.mul_ms"] = medianDur(muls["serial"], millis)
	// Every row of Eoutᵀ's partner holds one entry, so the product does
	// one multiply-add per edge.
	v["sparse.ns_per_flop"] = 1e6 * v["assoc.mul_ms"] / float64(len(in.Edges))
	v["sparse.allocs_per_build"], v["sparse.mb_per_build"] = median(allocs["serial"]), median(mbs["serial"])
	v["sparse.allocs_per_build_generic"], v["sparse.mb_per_build_generic"] = median(allocs["generic"]), median(mbs["generic"])
	serial, parallel := medianDur(facade["serial"], millis), medianDur(facade["parallel"], millis)
	if parallel > 0 {
		v["parallel.speedup_2w"] = serial / parallel
	}

	// The pipeline's price over the bare product: Build checks the
	// Theorem II.1 conditions on a sample of the data's values first.
	var builds []time.Duration
	for i := 0; i < max(sz.ConstructSerial/4, 3); i++ {
		builds = append(builds, t.span(t.request("build", i, opIngest), "core.build", func() {
			_, err = adjarray.Build(adjarray.BuildRequest{Eout: cg.eout, Ein: cg.ein, Semiring: "+.*"})
		}))
		if err != nil {
			return err
		}
	}
	v["core.build_overhead_ms"] = medianDur(builds, millis) - serial

	fmt.Printf("\nwhere the time goes — construct (median ms per build)\n")
	fmt.Printf("  %-10s %10s %10s %10s %10s\n", "loop", "facade", "transpose", "mul", "sum/facade")
	var facadeAll, sumAll float64
	for _, l := range loops {
		f, tm, mm := medianDur(facade[l.label], millis), medianDur(transposes[l.label], millis), medianDur(muls[l.label], millis)
		fmt.Printf("  %-10s %10.2f %10.2f %10.2f %9.0f%%\n", l.label, f, tm, mm, 100*(tm+mm)/f)
		facadeAll += float64(l.n) * f
		sumAll += float64(l.n) * (tm + mm)
	}
	fmt.Printf("  transpose + mul sum to %.0f%% of the facade call over all builds\n", 100*sumAll/facadeAll)
	fmt.Printf("  Build − Adjacency (condition check + value sampling): %.2f ms; Incidence: %.0f ms; speed-up at 2 workers: %.2f\n",
		v["core.build_overhead_ms"], v["graph.incidence_ms"], v["parallel.speedup_2w"])
	return nil
}
