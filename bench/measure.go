package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"adjarray"
)

// outcome is one workload's measured pass.
type outcome struct {
	Workload  string
	Why       string
	Attempted int
	Failed    int
	Errors    []string
	Values    values
	// TailPct and Samples qualify the tail metrics: the
	// percentile actually reported and how many samples it rests on.
	TailPct map[string]float64
	Samples map[string]int
	// Phases says where the run's own wall time went.
	Phases []string

	phaseStart time.Time
}

// phase closes the phase that began at the previous call (or at
// newOutcome) under the given name.
func (o *outcome) phase(name string) {
	now := time.Now()
	o.Phases = append(o.Phases, fmt.Sprintf("%s %.1fs", name, now.Sub(o.phaseStart).Seconds()))
	o.phaseStart = now
}

func newOutcome(workload string) *outcome {
	return &outcome{Workload: workload, Why: workloadWhy[workload], Values: values{},
		TailPct: map[string]float64{}, Samples: map[string]int{}, phaseStart: time.Now()}
}

func (o *outcome) op(err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
		if len(o.Errors) < maxErrsKept {
			o.Errors = append(o.Errors, err.Error())
		}
	}
}

func (o *outcome) absorb(l *load) {
	o.Attempted += l.attempted
	o.Failed += l.failed
	for _, e := range l.errs {
		if len(o.Errors) < maxErrsKept {
			o.Errors = append(o.Errors, e)
		}
	}
}

// spinAround records bench.spin_ms as the slower of the two probes
// taken before and after the workload.
func (o *outcome) spinAround(before, after time.Duration) {
	o.Values["bench.spin_ms"] = millis(max(before, after))
}

// opLatency books the latency of the workload's unit of work: median
// and the tail the sample supports.
func (o *outcome) opLatency(took []time.Duration) {
	xs := durations(took, millis)
	o.Values["bench.op_p50_ms"] = median(xs)
	t, pct := tail(xs)
	o.Values["bench.op_tail_ms"] = t
	o.TailPct["bench.op_tail_ms"] = pct
	o.Samples["bench.op_tail_ms"] = len(xs)
}

// latencyMetrics fills the per-kind medians and tails of a load.
func (o *outcome) latencyMetrics(l *load) {
	v := o.Values
	if n := len(l.lat[opIngest]); n > 0 {
		v["bench.ingest_ack_p50_ms"] = median(durations(l.lat[opIngest], millis))
	}
	if len(l.visible) > 0 {
		v["bench.visible_p50_ms"] = median(durations(l.visible, millis))
	}
	type spec struct {
		kind      opKind
		p50, tail string
		unit      func(time.Duration) float64
	}
	for _, s := range []spec{
		{opAt, "bench.at_p50_us", "serve.at_p99_us", micros},
		{opRow, "bench.row_p50_us", "serve.row_p99_us", micros},
		{opBFS, "bench.bfs_p50_ms", "serve.bfs_p99_ms", millis},
		{opPageRank, "bench.pagerank_p50_ms", "serve.pagerank_p99_ms", millis},
		{opSSSP, "serve.sssp_p50_ms", "", millis},
		{opBatch, "serve.batch_p50_ms", "", millis},
	} {
		xs := durations(l.lat[s.kind], s.unit)
		if len(xs) == 0 {
			continue
		}
		v[s.p50] = median(xs)
		if s.tail != "" {
			t, pct := tail(xs)
			v[s.tail] = t
			o.TailPct[s.tail] = pct
			o.Samples[s.tail] = len(xs)
		}
	}
	var bytes int64
	for k := opKind(0); k < numKinds; k++ {
		if k.isRead() {
			bytes += l.respBytes[k]
		}
	}
	if r := l.reads(); r > 0 {
		v["serve.response_bytes_per_read"] = float64(bytes) / float64(r)
	}
}

// serverMetrics turns two /metrics scrapes into the (M) layer numbers.
func (o *outcome) serverMetrics(before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	hits, rebuilds := d("adjserve_graph_cache_hits_total"), d("adjserve_graph_cache_rebuilds_total")
	if hits+rebuilds > 0 {
		o.Values["serve.cache_rebuild_share"] = rebuilds / (hits + rebuilds)
	}
	o.Values["serve.shed_total"] = d("adjserve_admission_shed_total")
	if k := after["adjserve_interner_keys"]; k > 0 {
		o.Values["keys.slab_bytes_per_key"] = after["adjserve_interner_slab_bytes"] / k
	}
}

// measure runs one workload's measured pass.
func measure(ws *workspace, workload string, seed int64, sz sizes) (*outcome, error) {
	if workload == wlConstruct {
		return measureConstruct(seed, sz)
	}
	// The clients share two cores with the child they measure: keep the
	// benchmark's own collector out of the way while they run. (Not for
	// construct, where this process is the one under test.)
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	switch workload {
	case wlIngest:
		return measureIngest(ws, seed, sz)
	case wlStatic, wlMixed:
		return measureQueries(ws, workload, seed, sz)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", workload, workloadNames)
}

// ---- construct ----

// constructGraph is the facade-level input of the construct loops.
type constructGraph struct {
	g             *adjarray.Graph
	eout, ein     *adjarray.Array[float64] // unit weights, for +.*
	eoutW, einW   *adjarray.Array[float64] // seed-drawn weights, for max.min
	incidenceTook time.Duration            // the unit-weight adjarray.Incidence alone
}

// buildConstructGraph is the construct workload's set-up: the facade
// graph and its unit-weight incidence pair.
func buildConstructGraph(in *constructInput) (*constructGraph, error) {
	edges := make([]adjarray.Edge, len(in.Edges))
	for i, e := range in.Edges {
		edges[i] = adjarray.Edge{Key: edgeKey(i), Src: e.Src, Dst: e.Dst}
	}
	g, err := adjarray.NewGraph(edges)
	if err != nil {
		return nil, err
	}
	cg := &constructGraph{g: g}
	start := time.Now()
	cg.eout, cg.ein, err = adjarray.Incidence(g, adjarray.PlusTimes(), adjarray.Weights[float64]{})
	cg.incidenceTook = time.Since(start)
	return cg, err
}

// addWeighted builds the max.min loop's incidence pair, once, outside
// setup_s.
func (cg *constructGraph) addWeighted(in *constructInput) (err error) {
	index := func(e adjarray.Edge) int {
		i, _ := strconv.Atoi(e.Key[1:])
		return i
	}
	cg.eoutW, cg.einW, err = adjarray.Incidence(cg.g, adjarray.MaxMin(), adjarray.Weights[float64]{
		Out: func(e adjarray.Edge) float64 { return in.WOut[index(e)] },
		In:  func(e adjarray.Edge) float64 { return in.WIn[index(e)] },
	})
	return err
}

// constructLoop is one of the construct workload's three timed loops.
type constructLoop struct {
	label, metric string
	n             int
	eout, ein     *adjarray.Array[float64]
	ops           adjarray.Ops[float64]
	opt           adjarray.MulOptions
}

func (cg *constructGraph) loops(sz sizes) []constructLoop {
	return []constructLoop{
		{"serial", "bench.construct_s", sz.ConstructSerial, cg.eout, cg.ein, adjarray.PlusTimes(), adjarray.MulOptions{}},
		{"generic", "bench.construct_generic_s", sz.ConstructGeneric, cg.eoutW, cg.einW, adjarray.MaxMin(), adjarray.MulOptions{}},
		{"parallel", "bench.construct_parallel_s", sz.ConstructWorkers, cg.eout, cg.ein, adjarray.PlusTimes(), adjarray.MulOptions{Workers: 2}},
	}
}

// checkAdjacency verifies one constructed array twice over: Definition
// I.5 through the facade, and value by value against the benchmark's
// own oracle.
func checkAdjacency(a *adjarray.Array[float64], g *adjarray.Graph, ops adjarray.Ops[float64], want map[edge]float64) error {
	if err := adjarray.IsAdjacencyOf(a, g, ops.IsZero); err != nil {
		return err
	}
	if a.NNZ() != len(want) {
		return fmt.Errorf("%s: product stores %d entries, the edge list has %d distinct pairs", ops.Name, a.NNZ(), len(want))
	}
	for e, w := range want {
		if got, ok := a.At(e.Src, e.Dst); !ok || got != w {
			return fmt.Errorf("%s: A(%s,%s) = %v (stored=%v), the edge list says %v", ops.Name, e.Src, e.Dst, got, ok, w)
		}
	}
	return nil
}

// timedBuilds runs n Adjacency constructions and returns each one's
// duration and the last result.
func timedBuilds(n int, eout, ein *adjarray.Array[float64], ops adjarray.Ops[float64], opt adjarray.MulOptions) ([]time.Duration, *adjarray.Array[float64], error) {
	took := make([]time.Duration, n)
	var last *adjarray.Array[float64]
	for i := range took {
		start := time.Now()
		a, err := adjarray.Adjacency(eout, ein, ops, opt)
		took[i] = time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		if last != nil && a.NNZ() != last.NNZ() {
			return nil, nil, fmt.Errorf("%s: build %d stores %d entries, the one before %d", ops.Name, i, a.NNZ(), last.NNZ())
		}
		last = a
	}
	return took, last, nil
}

func measureConstruct(seed int64, sz sizes) (*outcome, error) {
	o := newOutcome(wlConstruct)
	genStart := time.Now()
	in := constructScript(seed, sz)
	su := &setups{y: theYardstick()}
	o.Values["bench.gen_s"] = seconds(time.Since(genStart))
	o.phase("generate")

	var cg *constructGraph
	for i := 0; i < sz.ConstructSetups; i++ {
		su.next()
		start := time.Now()
		var err error
		if cg, err = buildConstructGraph(in); err != nil {
			return nil, err
		}
		su.done(time.Since(start))
	}
	su.book(o)
	if err := cg.addWeighted(in); err != nil {
		return nil, err
	}

	runtime.GC()
	spinBefore := spin()
	cpu0, wall0 := selfCPU(), time.Now()
	loops := cg.loops(sz)
	last := make([]*adjarray.Array[float64], len(loops))
	for i, l := range loops {
		took, a, err := timedBuilds(l.n, l.eout, l.ein, l.ops, l.opt)
		o.Attempted += l.n
		if err != nil {
			o.Failed += l.n
			o.Errors = append(o.Errors, err.Error())
			continue
		}
		last[i] = a
		o.Values[l.metric] = median(durations(took, seconds))
		if l.label == "serial" {
			o.opLatency(took)
		}
	}
	o.Values["bench.script_wall_s"] = seconds(time.Since(wall0))
	o.Values["bench.server_cpu_s"] = seconds(selfCPU() - cpu0)
	// Read the peak before the oracle maps below inflate it: up to here
	// the heap is the input plus what the builds needed.
	peak, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.Values["peak_rss_mb"] = peak
	o.spinAround(spinBefore, spin())
	o.phase("timed loops")

	mult, mm := multiplicity(in), maxOfMin(in)
	for i, l := range loops {
		if last[i] == nil {
			continue
		}
		want := mult
		if l.label == "generic" {
			want = mm
		}
		o.op(checkAdjacency(last[i], cg.g, l.ops, want))
	}
	o.phase("verify")
	return o, nil
}

// ---- serving ----

// writeEdges writes the child's -in file.
func writeEdges(path string, edges []edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range edges {
		w.WriteString(e.Src)
		w.WriteByte(' ')
		w.WriteString(e.Dst)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setUp starts a child several times, books setup_s from the exec →
// ready times, and returns the last child, ready. fresh returns the flags
// of one incarnation (a durable child needs a new data directory each
// time).
func (o *outcome) setUp(ws *workspace, su *setups, repeats, wantEdges int, fresh func() ([]string, error)) (*child, error) {
	for i := 0; ; i++ {
		su.next()
		flags, err := fresh()
		if err != nil {
			return nil, err
		}
		c, err := ws.start(flags...)
		if err != nil {
			return nil, err
		}
		took, err := c.waitReady(wantEdges)
		if err != nil {
			return nil, err
		}
		su.done(took)
		if i >= repeats-1 {
			su.book(o)
			return c, nil
		}
		if _, err := c.stop(syscall.SIGKILL); err != nil {
			return nil, err
		}
	}
}

// timedScript replays the timed lanes against c and books what only the
// moments around them can tell: the child's CPU over the script, its
// peak resident set, and its /metrics deltas.
func (o *outcome) timedScript(c *child, lanes [][]unit, conns int, v *verifier) (*load, float64, error) {
	before, err := scrape(c.base)
	if err != nil {
		return nil, 0, c.failure(err)
	}
	cpu0, _, err := c.usage()
	if err != nil {
		return nil, 0, c.failure(err)
	}
	l := replay(c.base, lanes, conns, v)
	cpu1, peak, err := c.usage()
	if err != nil {
		return nil, 0, c.failure(err)
	}
	after, err := scrape(c.base)
	if err != nil {
		return nil, 0, c.failure(err)
	}
	o.absorb(l)
	o.latencyMetrics(l)
	o.serverMetrics(before, after)
	o.Values["bench.script_wall_s"] = seconds(l.wall)
	o.Values["bench.server_cpu_s"] = seconds(cpu1 - cpu0)
	return l, peak, nil
}

// finalCheck compares what the server holds with the model of what was
// acknowledged; it counts as one op.
func finalCheck(base string, m *model, cells []edge) error {
	edges, err := statsEdges(http.DefaultClient, base)
	if err != nil {
		return err
	}
	c := newConn(base)
	defer c.close()
	return checkFinal(m, cells, edges, c.at)
}

// ingestEdges collects the edges of the acknowledged ingest units, in
// acknowledgement order per connection.
func ingestEdges(acked []unit) []edge {
	var out []edge
	for _, u := range acked {
		for _, rq := range u {
			if rq.Kind == opIngest {
				out = append(out, rq.Edges...)
			}
		}
	}
	return out
}

func measureQueries(ws *workspace, workload string, seed int64, sz sizes) (*outcome, error) {
	o := newOutcome(workload)
	genStart := time.Now()
	var sc *script
	shards := "1"
	if workload == wlStatic {
		sc = staticScript(seed, sz)
	} else {
		sc, shards = mixedScript(seed, sz), "2"
	}
	m := newModel()
	m.add(sc.Preload)
	in := filepath.Join(ws.scratch, workload+"-edges.txt")
	if err := writeEdges(in, sc.Preload); err != nil {
		return nil, err
	}
	su := &setups{y: theYardstick()}
	o.Values["bench.gen_s"] = seconds(time.Since(genStart))
	o.phase("generate")

	c, err := o.setUp(ws, su, sz.ServeSetups, len(sc.Preload), func() ([]string, error) {
		return []string{"-in", in, "-shards", shards}, nil
	})
	if err != nil {
		return nil, err
	}

	spinBefore := spin()
	v := &verifier{m: m, exact: workload == wlStatic}
	if len(sc.Warm) > 0 {
		o.absorb(replay(c.base, sc.Warm, sz.Conns, v))
	}
	o.phase("warm-up")
	l, peak, err := o.timedScript(c, sc.Lanes, sz.Conns, v)
	if err != nil {
		return nil, err
	}
	o.Values["peak_rss_mb"] = peak
	o.opLatency(l.unitLat)
	o.Values["bench.read_qps"] = float64(l.reads()) / seconds(l.wall)
	o.phase("timed script")

	written := ingestEdges(l.acked)
	m.add(written)
	o.op(finalCheck(c.base, m, append(written, sc.Preload...)))
	if _, err := c.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	o.spinAround(spinBefore, spin())
	o.phase("check and stop")
	return o, nil
}

func measureIngest(ws *workspace, seed int64, sz sizes) (*outcome, error) {
	o := newOutcome(wlIngest)
	genStart := time.Now()
	sc := ingestScript(seed, sz)
	su := &setups{y: theYardstick()}
	o.Values["bench.gen_s"] = seconds(time.Since(genStart))
	o.phase("generate")

	var dataDir string
	flags := func() []string {
		return []string{"-in", os.DevNull, "-data-dir", dataDir, "-fsync", "batch", "-shards", "1",
			"-checkpoint-every", strconv.Itoa(sz.CheckpointEvery)}
	}
	c, err := o.setUp(ws, su, sz.IngestSetups, 0, func() ([]string, error) {
		var err error
		dataDir, err = ws.tempDir("data-")
		return flags(), err
	})
	if err != nil {
		return nil, err
	}

	spinBefore := spin()
	// Both connections pull from the one lane: one cursor.
	v := &verifier{m: newModel()}
	l, peak, err := o.timedScript(c, sc.Lanes, sz.Conns, v)
	if err != nil {
		return nil, err
	}
	written := ingestEdges(l.acked)
	m := newModel()
	m.add(written)
	o.opLatency(l.lat[opIngest])
	o.Values["bench.ingest_edges_per_s"] = float64(len(written)) / seconds(l.wall)
	o.op(finalCheck(c.base, m, written))
	o.phase("timed script")

	// Clean shutdown: the final covering checkpoint, then what is on disk.
	took, err := c.stop(syscall.SIGTERM)
	if err != nil {
		return nil, err
	}
	o.Values["wal.shutdown_checkpoint_s"] = seconds(took)
	onDisk, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	if len(written) > 0 {
		o.Values["bench.disk_bytes_per_edge"] = float64(onDisk) / float64(len(written))
	}

	// Restart from the covering checkpoint, add a tail of batches the
	// next recovery will have to replay, and kill without warning.
	if c, err = ws.start(flags()...); err != nil {
		return nil, err
	}
	took, err = c.waitReady(0)
	if err != nil {
		return nil, err
	}
	o.Values["wal.restart_clean_s"] = seconds(took)
	o.op(finalCheck(c.base, m, written))
	tail := replay(c.base, [][]unit{sc.Tail}, 1, v)
	o.absorb(tail)
	tailEdges := ingestEdges(tail.acked)
	m.add(tailEdges)
	written = append(written, tailEdges...)
	if _, p, err := c.usage(); err == nil {
		peak = max(peak, p)
	}
	if _, err := c.stop(syscall.SIGKILL); err != nil {
		return nil, err
	}

	// Recovery: checkpoint load plus exactly the tail's batches replayed.
	if c, err = ws.start(flags()...); err != nil {
		return nil, err
	}
	took, err = c.waitReady(0)
	if err != nil {
		return nil, err
	}
	o.Values["bench.recover_s"] = seconds(took)
	o.op(finalCheck(c.base, m, written))
	if _, p, err := c.usage(); err == nil {
		peak = max(peak, p)
	}
	o.Values["peak_rss_mb"] = peak
	if _, err := c.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	o.spinAround(spinBefore, spin())
	o.phase("restarts")
	return o, nil
}
