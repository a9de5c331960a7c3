package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// ---- script.go ----

func scriptWires(seed int64, sz sizes) map[string][]byte {
	return map[string][]byte{
		wlConstruct: constructScript(seed, sz).wire(),
		wlIngest:    ingestScript(seed, sz).wire(),
		wlStatic:    staticScript(seed, sz).wire(),
		wlMixed:     mixedScript(seed, sz).wire(),
	}
}

func TestScriptsDependOnTheSeedAlone(t *testing.T) {
	sz := toySizes()
	a, again, b := scriptWires(7, sz), scriptWires(7, sz), scriptWires(8, sz)
	for _, w := range workloadNames {
		if len(a[w]) == 0 {
			t.Errorf("%s: empty script", w)
		}
		if !bytes.Equal(a[w], again[w]) {
			t.Errorf("%s: the same seed gave two different scripts", w)
		}
		if bytes.Equal(a[w], b[w]) {
			t.Errorf("%s: two seeds gave the same script", w)
		}
	}
}

// The traced replay is "the first quarter of each script": a shorter
// script must be a prefix of the longer one.
func TestShorterScriptIsAPrefix(t *testing.T) {
	sz := toySizes()
	sz.StaticCycles, sz.MixedCycles, sz.IngestBatches = 8, 8, 16
	q := sz.traced()
	for _, pair := range [][2]*script{
		{staticScript(3, sz), staticScript(3, q)},
		{mixedScript(3, sz), mixedScript(3, q)},
		{ingestScript(3, sz), ingestScript(3, q)},
	} {
		long, short := pair[0], pair[1]
		for lane := range short.Lanes {
			if n := len(short.Lanes[lane]); n == 0 || !reflect.DeepEqual(long.Lanes[lane][:n], short.Lanes[lane]) {
				t.Errorf("%s lane %d: the quarter script is not a prefix of the full one", long.Name, lane)
			}
		}
	}
}

func TestFullScriptsHoldTheIssuesOpCounts(t *testing.T) {
	sz := fullSizes()
	in := constructScript(1, sz)
	if got := len(in.Edges); got != 524288 {
		t.Errorf("construct: %d edges, want 524288", got)
	}
	if sz.ConstructSerial != 80 || sz.ConstructGeneric != 60 || sz.ConstructWorkers != 80 {
		t.Errorf("construct loops are %d/%d/%d, want 80/60/80", sz.ConstructSerial, sz.ConstructGeneric, sz.ConstructWorkers)
	}
	for _, w := range in.WOut {
		if w < 1 || w > 9 {
			t.Fatalf("max.min weight %v outside 1..9", w)
		}
	}

	static := staticScript(1, sz)
	if got := len(static.Preload); got != 131072 {
		t.Errorf("query_static preload: %d edges, want 131072", got)
	}
	want := [numKinds]int{opAt: 2 * 600 * 5, opRow: 2 * 600 * 5, opBFS: 2 * 600, opSSSP: 2 * 600, opPageRank: 2 * 600, opBatch: 2 * 600}
	if got := static.counts(); got != want {
		t.Errorf("query_static op counts %v, want %v", got, want)
	}
	if len(static.Warm) != 2 || len(static.Warm[0]) != 20 {
		t.Errorf("query_static warm-up is not 2 × 20 cycles")
	}
	batch := static.Lanes[0][0][13]
	if batch.Kind != opBatch || len(batch.Sub) != 8 {
		t.Errorf("the 14th request of a cycle is %v with %d sub-ops, want batch with 8", batch.Kind, len(batch.Sub))
	}

	mixed := mixedScript(1, sz)
	want = [numKinds]int{opIngest: 2 * 800 * 2, opAt: 2 * 800 * 2, opRow: 2 * 800 * 2, opBFS: 2 * 800, opPageRank: 2 * 800}
	if got := mixed.counts(); got != want {
		t.Errorf("mixed_rw op counts %v, want %v", got, want)
	}
	if got := len(mixed.Lanes[0][0][0].Edges); got != 32 {
		t.Errorf("mixed_rw ingests %d edges a batch, want 32", got)
	}

	if testing.Short() {
		return // the full ingest script is a million edges of JSON
	}
	ingest := ingestScript(1, sz)
	c := ingest.counts()
	if len(ingest.Lanes) != 1 || c[opIngest] != 4096 || c[opAt] != 4096/8 || len(ingest.Tail) != 100 {
		t.Errorf("ingest_durable: %d lanes, %d batches, %d probes, %d tail batches; want 1, 4096, 512, 100",
			len(ingest.Lanes), c[opIngest], c[opAt], len(ingest.Tail))
	}
	edges := 0
	for _, u := range ingest.Lanes[0] {
		edges += len(u[0].Edges)
	}
	if edges != 1048576 {
		t.Errorf("ingest_durable: %d timed edges, want 1048576", edges)
	}
}

func TestSecondsScaleOpCountsNotGraphs(t *testing.T) {
	full, cut := fullSizes(), fullSizes().forSeconds(defaultSeconds)
	if cut.ConstructScale != full.ConstructScale || cut.ServeScale != full.ServeScale || cut.IngestScale != full.IngestScale {
		t.Error("-seconds changed a graph scale")
	}
	if cut.StaticCycles >= full.StaticCycles || cut.IngestBatches%cut.CheckpointEvery != 0 {
		t.Errorf("cut sizes %+v", cut)
	}
}

// ---- model.go ----

func TestVerifierCatchesACorruptedAt(t *testing.T) {
	m := newModel()
	m.add([]edge{{"a", "b"}, {"a", "b"}, {"b", "c"}})
	v := &verifier{m: m, exact: true}
	rq := getAt("a", "b")
	if err := v.check(&rq, []byte(`{"src":"a","dst":"b","value":2,"stored":true}`)); err != nil {
		t.Fatalf("the true answer was refused: %v", err)
	}
	for _, corrupt := range []string{
		`{"value":3,"stored":true}`, `{"value":2,"stored":false}`, `{"value":"2","stored":true}`, `not json`,
	} {
		if err := v.check(&rq, []byte(corrupt)); err == nil {
			t.Errorf("corrupted answer %s passed", corrupt)
		}
	}
	absent := getAt("c", "a")
	if err := v.check(&absent, []byte(`{"value":0,"stored":false}`)); err != nil {
		t.Errorf("a truly absent cell was refused: %v", err)
	}
	if err := v.check(&absent, []byte(`{"value":1,"stored":true}`)); err == nil {
		t.Error("an invented cell passed")
	}
}

func TestVerifierChecksWholeAnswers(t *testing.T) {
	m := newModel()
	m.add([]edge{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	v := &verifier{m: m, exact: true}
	bfs := getBFS("a")
	bfs.Check = true
	if err := v.check(&bfs, []byte(`{"result":{"a":0,"b":1,"c":1}}`)); err != nil {
		t.Errorf("true BFS refused: %v", err)
	}
	if err := v.check(&bfs, []byte(`{"result":{"a":0,"b":1,"c":2}}`)); err == nil {
		t.Error("wrong BFS level passed")
	}
	row := getRow("a")
	if err := v.check(&row, []byte(`{"row":{"b":1}}`)); err == nil {
		t.Error("short row passed")
	}
	pr := getPageRank()
	pr.Check = true
	if err := v.check(&pr, []byte(`{"result":{"rank":{"a":0.2,"b":0.3,"c":0.4},"iterations":20}}`)); err == nil {
		t.Error("ranks that do not sum to 1 passed")
	}
}

func TestFinalCheckCatchesADroppedBatch(t *testing.T) {
	sc := ingestScript(5, toySizes())
	acked := sc.Lanes[0]
	written := ingestEdges(acked)
	m := newModel()
	m.add(written)

	// A server that lost one acknowledged batch.
	dropped := 3
	server := newModel()
	for i, u := range acked {
		if i != dropped {
			server.add(u[0].Edges)
		}
	}
	lookup := func(held *model) func(src, dst string) (atAnswer, error) {
		return func(src, dst string) (atAnswer, error) {
			v, ok := held.at(src, dst)
			return atAnswer{Value: v, Stored: ok}, nil
		}
	}
	if err := checkFinal(m, written, m.edges, lookup(m)); err != nil {
		t.Fatalf("an intact server was refused: %v", err)
	}
	if err := checkFinal(m, written, server.edges, lookup(server)); err == nil {
		t.Error("a dropped batch went unnoticed by the edge count")
	}
	// Even with the count forged, the sampled cells give it away.
	if err := checkFinal(m, written, m.edges, lookup(server)); err == nil {
		t.Error("a dropped batch went unnoticed by the sampled cells")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python says 2.75, 8.25", q1, q3)
	}
}

func TestSetupIsReportedAgainstTheYardstick(t *testing.T) {
	a, b := theYardstick(), newYardstick()
	if !reflect.DeepEqual(a.edges, b.edges) || !slices.Equal(a.perm, b.perm) {
		t.Fatal("the yardstick's inputs differ between two constructions")
	}
	su := &setups{y: a}
	for _, took := range []time.Duration{2 * time.Second, 6 * time.Second, 4 * time.Second} {
		su.next()
		su.done(took)
	}
	o := newOutcome(wlConstruct)
	su.book(o)
	raw, yard := o.Values["bench.setup_raw_s"], o.Values["bench.yardstick_ms"]/1000
	if raw != 4 || len(su.yard) != 4 || yard != median(su.yard) || !(yard > 0) {
		t.Errorf("raw median %v, %d yardstick runs with median %v", raw, len(su.yard), yard)
	}
	if got, want := o.Values["setup_s"], raw/yard*yardNominal.Seconds(); got != want {
		t.Errorf("setup_s = %v, want median set-up over median yardstick times nominal = %v", got, want)
	}
}

// ---- fs.go ----

// durableRun appends the toy ingest script to a fresh durable ingest
// through fsys (nil: the real filesystem), closes it, and returns the
// data directory.
func durableRun(t *testing.T, fsys *countingFS, sc *script) string {
	t.Helper()
	dir := t.TempDir()
	ing, err := newIngest(ingestConfig{shards: 1, dataDir: dir, fs: fsys, checkpointEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range sc.Lanes[0] {
		if err := ing.AppendBatch(streamEdges(u[0].Edges)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCountingFSIsAPassThrough(t *testing.T) {
	sc := ingestScript(11, toySizes())
	counted, plain := durableRun(t, newCountingFS(), sc), durableRun(t, nil, sc)
	m := newModel()
	m.add(ingestEdges(sc.Lanes[0]))
	for _, dir := range []string{counted, plain} {
		ing, err := newIngest(ingestConfig{shards: 1, dataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Edges != m.edges || snap.Adjacency.NNZ() != m.nnz() {
			t.Errorf("%s recovered %d edges / %d entries, want %d / %d", dir, snap.Edges, snap.Adjacency.NNZ(), m.edges, m.nnz())
		}
		for src, row := range m.rows {
			for dst, want := range row {
				if got, ok := snap.Adjacency.At(src, dst); !ok || got != want {
					t.Fatalf("%s recovered A(%s,%s) = %v (stored=%v), want %v", dir, src, dst, got, ok, want)
				}
			}
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := dirBytes(counted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dirBytes(plain)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("the counted run left %d bytes on disk, the plain run %d", a, b)
	}
}

func TestCountingFSCountsRepeatExactly(t *testing.T) {
	sc := ingestScript(11, toySizes())
	batches := int64(len(sc.Lanes[0]))
	var first [2]fsCounts
	for run := 0; run < 2; run++ {
		cfs := newCountingFS()
		durableRun(t, cfs, sc)
		appendPath, checkpoints, segmentSyncs := cfs.snapshotCounts()
		// fsync=batch: one segment Sync per appended batch, no more.
		if segmentSyncs != batches {
			t.Errorf("run %d: %d segment Sync calls for %d batches", run, segmentSyncs, batches)
		}
		if appendPath.Writes != batches || checkpoints.Bytes == 0 || len(cfs.ckpts) != 1 {
			t.Errorf("run %d: %d WAL writes for %d batches, %d checkpoint bytes in %d checkpoints",
				run, appendPath.Writes, batches, checkpoints.Bytes, len(cfs.ckpts))
		}
		if run == 0 {
			first = [2]fsCounts{appendPath, checkpoints}
		} else if got := [2]fsCounts{appendPath, checkpoints}; got != first {
			t.Errorf("counts differ between two runs of one seed: %+v then %+v", first, got)
		}
	}
}

// ---- the whole thing, at toy size ----

func testWorkspace(t *testing.T) *workspace {
	t.Helper()
	ws, err := newWorkspace(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws.cleanup)
	return ws
}

// smoke runs one workload's measured pass and traced replay and checks
// what every run must satisfy.
func smoke(t *testing.T, ws *workspace, workload string) {
	t.Helper()
	sz := toySizes()
	o, err := measure(ws, workload, 1, sz)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if v := o.Values[d.Name]; !(v > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, must be measured and never 0", workload, d.Name, v)
		}
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	if err := traced(ws, o, 1, sz.traced(), spans); err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 || o.Attempted == 0 {
		t.Errorf("%s: %d of %d ops failed: %v", workload, o.Failed, o.Attempted, o.Errors)
	}
	checkSpanFile(t, spans)
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	for _, layers := range []bool{false, true} {
		line.Metrics = nil
		if err := json.Unmarshal([]byte(resultLine(o, layers)), &line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if layers {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) || !line.Correct {
			t.Errorf("%s: result line has %d metrics (want %d), correct=%v", workload, len(line.Metrics), len(defs), line.Correct)
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("%s: result line lacks %s in %s", workload, d.Name, d.Unit)
			}
		}
	}
}

// checkSpanFile reads a written span file back and checks the forest:
// one root per request id, every child inside its parent.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Requests []reqInfo
		Spans    []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || len(doc.Requests) == 0 {
		t.Fatal("empty span file")
	}
	tr := (&tracer{spans: doc.Spans, reqs: doc.Requests}).tree()
	for req := range doc.Requests {
		if err := tr.wellFormed(int32(req)); err != nil {
			t.Errorf("span tree of request %d (%+v): %v", req, doc.Requests[req], err)
		}
	}
}

func TestSmokeConstruct(t *testing.T) { smoke(t, testWorkspace(t), wlConstruct) }

func TestSmokeServing(t *testing.T) {
	if testing.Short() {
		t.Skip("starts adjserve child processes")
	}
	ws := testWorkspace(t)
	if _, err := ws.buildAdjserve(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{wlIngest, wlStatic, wlMixed} {
		t.Run(w, func(t *testing.T) { smoke(t, ws, w) })
	}
}

func TestChildFailureCarriesItsStderr(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an adjserve child process")
	}
	ws := testWorkspace(t)
	if _, err := ws.buildAdjserve(); err != nil {
		t.Fatal(err)
	}
	c, err := ws.start("-in", os.DevNull, "-semiring", "no.such.pair")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.waitReady(0)
	if err == nil || !strings.Contains(err.Error(), "unknown operator pair") {
		t.Errorf("a child that refused to start reported %v, want its stderr", err)
	}
	ws.cleanup()
	if _, statErr := os.Stat(ws.scratch); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("cleanup left %s behind", ws.scratch)
	}
}

// ---- what the benchmark may touch ----

// The benchmark has to keep compiling while later changes collapse
// kernels, backends and view types, so only layers.go and fs.go may
// import internal packages, only these, and nothing may name what is
// due to go.
func TestCallSurface(t *testing.T) {
	allowed := map[string][]string{
		"layers.go": {"adjarray/internal/algo", "adjarray/internal/assoc", "adjarray/internal/core", "adjarray/internal/keys", "adjarray/internal/serve"},
		"fs.go":     {"adjarray/internal/iofault"},
	}
	// core.Ingest's maybe-nil accessors are off limits as calls (the
	// options struct has a Durable field, which is not).
	accessor := map[string]bool{"View": true, "Sharded": true, "Durable": true}
	offLimits := func(name string) bool {
		switch name {
		case "NewView", "NewShardedView", "OpenSharded", "FromIncidence",
			"DurableView", "ShardedView", "ShardedSnapshot",
			"NewAdjacencyView", "NewShardedAdjacencyView", "AdjacencyViewFromIncidence",
			"AdjacencyView", "ShardedAdjacencyView":
			return true
		}
		return strings.HasPrefix(name, "Backend") || (strings.HasPrefix(name, "Mul") && name != "Mul" && name != "MulOptions")
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "adjarray/") {
				continue // the standard library and the root facade
			}
			if !slices.Contains(allowed[name], path) {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if offLimits(n.Sel.Name) {
					t.Errorf("%s: %s is off limits (ROADMAP item 3 means to collapse it)", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && accessor[sel.Sel.Name] && len(n.Args) == 0 {
					t.Errorf("%s: the %s() accessor is off limits", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// BENCHMARK.json is the contract's copy of metrics.go and script.go.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %s/%s/%s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in metrics.go", kind, d.Name, g.Bound, d.Bound)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long for the contract", kind, d.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
