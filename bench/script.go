package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// The workloads. Each name is a -workload value; the rationale is
// emitted into the result so a reader of the numbers knows why the
// script has the shape it has.
const (
	wlConstruct = "construct"
	wlIngest    = "ingest_durable"
	wlStatic    = "query_static"
	wlMixed     = "mixed_rw"
)

var workloadNames = []string{wlConstruct, wlIngest, wlStatic, wlMixed}

var workloadWhy = map[string]string{
	// At most 200 characters each: BENCHMARK.json carries them.
	wlConstruct: "The paper's product in-process: sparse/assoc/keys do all the work, serve/stream/wal none; the max.min loop takes the generic fold, not the monomorphized +.* row function.",
	wlIngest:    "The durable write path: decode, intern, view append, WAL, fsync, visible. The vertex universe grows all run, so the interner's slow path stays hot; algo and the kernels do nothing.",
	wlStatic:    "The read path on one epoch: admission, snapshot pin, graph cache (always hits), kernel, JSON encode. serve and algo dominate; stream append, wal and shard do nothing.",
	wlMixed:     "Reads on a 2-shard view under writes: each algorithm query meets a new epoch vector, so the graph cache misses, Snapshot pays the fold and the sharded view its scatter and gather-merge.",
}

// fullSeconds is how long each script takes at its full size (the op
// counts of fullSizes) at the commit that defined the benchmark, on the
// 2-core box it was sized on, when that box is at its fastest (it is up
// to twice as slow at other times). -seconds S cuts every script to the
// share S/fullSeconds of its op counts and leaves the graph scales
// alone, so a run is a fixed amount of work for a given (-seed,
// -seconds): CPU seconds, peak memory and bytes on disk are only
// comparable between commits when the work is.
var fullSeconds = map[string]int{wlConstruct: 20, wlIngest: 24, wlStatic: 40, wlMixed: 40}

// sizes fixes how much work each script holds.
type sizes struct {
	Conns int // closed-loop client connections against the child

	// How many times a run sets the system up; setup_s rests on the
	// median, because one exec or one graph build is too short a thing
	// to time once (on the sizing box single set-ups of one run differ
	// by ±15%). The cheaper the set-up, the more repeats it gets: an empty
	// durable child is ready in 7 ms, the construct graph in 2 s.
	ConstructSetups, IngestSetups, ServeSetups int

	ConstructScale, ConstructEF                         int
	ConstructSerial, ConstructGeneric, ConstructWorkers int // builds per timed loop

	IngestScale      int
	IngestBatches    int // timed POST /ingest batches
	IngestBatchEdges int
	IngestReadEvery  int // every n-th batch is followed by GET /at
	IngestTail       int // untimed batches between the clean restart and SIGKILL
	CheckpointEvery  int

	ServeScale, ServeEF int // preload graph of query_static and mixed_rw
	StaticWarm          int // untimed warm-up cycles per connection
	StaticCycles        int // timed 14-request cycles per connection
	BFSCheckEvery       int // every n-th /bfs is compared with the oracle
	RankCheckEvery      int // every n-th /pagerank is decoded and checked

	MixedCycles      int // timed 8-request cycles per connection
	MixedIngestEdges int
	MixedFreshEvery  int // one ingested edge in n goes to a fresh vertex
}

func fullSizes() sizes {
	return sizes{
		Conns:           2,
		ConstructSetups: 5, IngestSetups: 15, ServeSetups: 9,
		ConstructScale: 16, ConstructEF: 8,
		ConstructSerial: 80, ConstructGeneric: 60, ConstructWorkers: 80,
		IngestScale: 17, IngestBatches: 4096, IngestBatchEdges: 256,
		IngestReadEvery: 8, IngestTail: 100, CheckpointEvery: 256,
		ServeScale: 14, ServeEF: 8,
		StaticWarm: 20, StaticCycles: 600, BFSCheckEvery: 50, RankCheckEvery: 10,
		MixedCycles: 800, MixedIngestEdges: 32, MixedFreshEvery: 16,
	}
}

// toySizes is the smoke-test size: every code path, a second or two.
func toySizes() sizes {
	s := fullSizes()
	s.ConstructSetups, s.IngestSetups, s.ServeSetups = 2, 2, 2
	s.ConstructScale, s.IngestScale, s.ServeScale = 8, 8, 8
	s.ConstructSerial, s.ConstructGeneric, s.ConstructWorkers = 4, 4, 4
	s.IngestBatches, s.IngestBatchEdges, s.IngestTail, s.CheckpointEvery = 16, 32, 4, 8
	s.StaticWarm, s.StaticCycles, s.BFSCheckEvery, s.RankCheckEvery = 1, 5, 2, 2
	s.MixedCycles = 5
	return s
}

// forSeconds scales the op counts of the full script to a run of the
// given length; graph scales, batch sizes and cadences stay fixed.
func (s sizes) forSeconds(seconds int) sizes {
	scale := func(n int, workload string) int {
		return max(n*seconds/fullSeconds[workload], 4)
	}
	s.ConstructSerial = scale(s.ConstructSerial, wlConstruct)
	s.ConstructGeneric = scale(s.ConstructGeneric, wlConstruct)
	s.ConstructWorkers = scale(s.ConstructWorkers, wlConstruct)
	// Whole checkpoint periods, so every run ends the timed script on
	// the same side of a background checkpoint.
	s.IngestBatches = max(scale(s.IngestBatches, wlIngest)/s.CheckpointEvery, 2) * s.CheckpointEvery
	s.StaticWarm = scale(s.StaticWarm, wlStatic)
	s.StaticCycles = scale(s.StaticCycles, wlStatic)
	s.MixedCycles = scale(s.MixedCycles, wlMixed)
	return s
}

// traced returns the sizes of the traced replay: the first quarter of
// each script.
func (s sizes) traced() sizes {
	q := func(n int) int { return max(n/4, 2) }
	s.ConstructSerial, s.ConstructGeneric, s.ConstructWorkers = q(s.ConstructSerial), q(s.ConstructGeneric), q(s.ConstructWorkers)
	s.IngestBatches = q(s.IngestBatches)
	s.StaticCycles = q(s.StaticCycles)
	s.MixedCycles = q(s.MixedCycles)
	return s
}

// edge is one directed edge between vertex keys.
type edge struct{ Src, Dst string }

func vkey(id int) string { return "v" + pad7(id) }

func pad7(n int) string {
	s := strconv.Itoa(n)
	if len(s) >= 7 {
		return s
	}
	return "0000000"[len(s):] + s
}

// rmat samples m edges of a 2^scale-vertex R-MAT graph with the
// Graph500 partition probabilities, as vertex ids. Parallel edges and
// self-loops are kept: aggregating them is what ⊕ is for.
func rmat(r *rand.Rand, scale, m int) [][2]int32 {
	n := 1 << scale
	const a, b, c = 0.57, 0.19, 0.19
	out := make([][2]int32, m)
	for e := range out {
		src, dst := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			switch p := r.Float64(); {
			case p < a:
			case p < a+b:
				dst += bit
			case p < a+b+c:
				src += bit
			default:
				src += bit
				dst += bit
			}
		}
		out[e] = [2]int32{int32(src), int32(dst)}
	}
	return out
}

func keyed(ids [][2]int32) []edge {
	out := make([]edge, len(ids))
	for i, e := range ids {
		out[i] = edge{vkey(int(e[0])), vkey(int(e[1]))}
	}
	return out
}

// opKind names a request class; latencies are pooled per kind.
type opKind uint8

const (
	opIngest opKind = iota
	opAt
	opRow
	opBFS
	opSSSP
	opPageRank
	opBatch
	numKinds
)

var kindNames = [numKinds]string{"ingest", "at", "row", "bfs", "sssp", "pagerank", "batch"}

func (k opKind) String() string { return kindNames[k] }

// isRead reports whether the kind counts towards read_qps.
func (k opKind) isRead() bool { return k != opIngest }

const pageRankIters = 20

// request is one scripted operation. Method, Path and Body are the wire
// form the measured run sends; Src, Dst, Edges and Sub are the same
// request in structured form, for the in-process replay and the oracle.
type request struct {
	Kind   opKind
	Method string
	Path   string
	Body   []byte

	Src, Dst string
	Edges    []edge    // opIngest
	Sub      []request // opBatch

	// ReadYourWrite marks an /at that probes the last edge of the
	// ingest before it in the same unit: it must answer stored:true,
	// and send(ingest) → answer(at) is one visible-latency sample.
	ReadYourWrite bool
	// Check marks a /bfs or /pagerank whose whole answer is decoded and
	// compared with the oracle.
	Check bool
}

// unit is a run of requests one connection sends back to back: an
// ingest batch with its probe, or one query cycle.
type unit []request

// script is everything one serving workload sends, generated from the
// seed alone.
type script struct {
	Name string
	// Preload is the child's -in file: one "src dst" edge per line.
	Preload []edge
	// Lanes are unit queues. A connection pulls from lane c mod
	// len(Lanes), so one lane shared by two connections is "one cursor".
	Lanes [][]unit
	Warm  [][]unit // untimed, same lane layout
	Tail  []unit   // ingest_durable: untimed batches before SIGKILL
}

// wire renders the script as bytes: what the program under test will
// receive, in generation order. Two scripts are the same script iff
// their wire forms are equal.
func (s *script) wire() []byte {
	var b bytes.Buffer
	for _, e := range s.Preload {
		fmt.Fprintf(&b, "%s %s\n", e.Src, e.Dst)
	}
	lanes := func(tag string, ls [][]unit) {
		for i, lane := range ls {
			fmt.Fprintf(&b, "# %s lane %d\n", tag, i)
			for _, u := range lane {
				for _, rq := range u {
					fmt.Fprintf(&b, "%s %s %s\n", rq.Method, rq.Path, rq.Body)
				}
			}
		}
	}
	lanes("warm", s.Warm)
	lanes("timed", s.Lanes)
	lanes("tail", [][]unit{s.Tail})
	return b.Bytes()
}

// counts returns how many requests of each kind the timed lanes hold.
func (s *script) counts() [numKinds]int {
	var c [numKinds]int
	for _, lane := range s.Lanes {
		for _, u := range lane {
			for _, rq := range u {
				c[rq.Kind]++
			}
		}
	}
	return c
}

func getAt(src, dst string) request {
	return request{Kind: opAt, Method: "GET", Path: "/at?src=" + src + "&dst=" + dst, Src: src, Dst: dst}
}

func getRow(src string) request {
	return request{Kind: opRow, Method: "GET", Path: "/row?src=" + src, Src: src}
}

func getBFS(src string) request {
	return request{Kind: opBFS, Method: "GET", Path: "/bfs?src=" + src, Src: src}
}

func getSSSP(src string) request {
	return request{Kind: opSSSP, Method: "GET", Path: "/sssp?src=" + src, Src: src}
}

func getPageRank() request {
	return request{Kind: opPageRank, Method: "GET", Path: "/pagerank?iters=" + strconv.Itoa(pageRankIters)}
}

func postIngest(edges []edge) request {
	var b bytes.Buffer
	b.WriteString(`{"edges":[`)
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%q,"dst":%q}`, e.Src, e.Dst)
	}
	b.WriteString("]}")
	return request{Kind: opIngest, Method: "POST", Path: "/ingest", Body: b.Bytes(), Edges: edges}
}

func postBatch(sub []request) request {
	var b bytes.Buffer
	b.WriteString(`{"ops":[`)
	for i, rq := range sub {
		if i > 0 {
			b.WriteByte(',')
		}
		switch rq.Kind {
		case opAt:
			fmt.Fprintf(&b, `{"op":"at","src":%q,"dst":%q}`, rq.Src, rq.Dst)
		case opRow:
			fmt.Fprintf(&b, `{"op":"row","src":%q}`, rq.Src)
		case opBFS:
			fmt.Fprintf(&b, `{"op":"bfs","src":%q}`, rq.Src)
		default:
			panic("bench: batch sub-op " + rq.Kind.String() + " not scripted")
		}
	}
	b.WriteString("]}")
	return request{Kind: opBatch, Method: "POST", Path: "/batch", Body: b.Bytes(), Sub: sub}
}

// hotVertices orders the sources of edges by descending out-degree
// (ties by key), so rank 0 is the hub: the zipf draws below then make
// the graph's hot vertices the workload's hot vertices too. Only
// vertices with out-degree >= 1 appear, so no drawn source is unknown
// to the server.
func hotVertices(edges []edge) []string {
	deg := map[string]int{}
	for _, e := range edges {
		deg[e.Src]++
	}
	vs := make([]string, 0, len(deg))
	for v := range deg {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool {
		if deg[vs[i]] != deg[vs[j]] {
			return deg[vs[i]] > deg[vs[j]]
		}
		return vs[i] < vs[j]
	})
	return vs
}

const zipfS = 1.2

// picker draws vertices zipf(s=1.2) over out-degree rank.
type picker struct {
	hot []string
	z   *rand.Zipf
}

func newPicker(r *rand.Rand, hot []string) *picker {
	return &picker{hot: hot, z: rand.NewZipf(r, zipfS, 1, uint64(len(hot)-1))}
}

func (p *picker) vertex() string { return p.hot[p.z.Uint64()] }

// laneRand derives an independent generator per lane from the seed, so
// adding a lane never changes another lane's draws.
func laneRand(seed int64, workload string, lane int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane+1)*0xbf58476d1ce4e5b9
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

func servePreload(seed int64, sz sizes) []edge {
	r := laneRand(seed, "preload", 0)
	return keyed(rmat(r, sz.ServeScale, sz.ServeEF<<sz.ServeScale))
}

// staticScript is query_static: both connections run 14-request cycles
// against an unchanging graph.
func staticScript(seed int64, sz sizes) *script {
	s := &script{Name: wlStatic, Preload: servePreload(seed, sz)}
	hot := hotVertices(s.Preload)
	for c := 0; c < sz.Conns; c++ {
		p := newPicker(laneRand(seed, wlStatic, c), hot)
		bfsSeen, prSeen := 0, 0
		cycle := func() unit {
			at := func() request { return getAt(p.vertex(), p.vertex()) }
			row := func() request { return getRow(p.vertex()) }
			bfs := func() request {
				rq := getBFS(p.vertex())
				bfsSeen++
				rq.Check = bfsSeen%sz.BFSCheckEvery == 0
				return rq
			}
			pr := getPageRank()
			prSeen++
			pr.Check = prSeen%sz.RankCheckEvery == 0
			return unit{
				at(), row(), at(), row(), bfs(), at(), row(), getSSSP(p.vertex()),
				at(), row(), pr, at(), row(),
				postBatch([]request{at(), at(), at(), at(), row(), row(), row(), getBFS(p.vertex())}),
			}
		}
		var warm, timed []unit
		for i := 0; i < sz.StaticWarm; i++ {
			warm = append(warm, cycle())
		}
		for i := 0; i < sz.StaticCycles; i++ {
			timed = append(timed, cycle())
		}
		s.Warm = append(s.Warm, warm)
		s.Lanes = append(s.Lanes, timed)
	}
	return s
}

// mixedScript is mixed_rw: both connections interleave small ingests
// with reads, so every algorithm query meets a new epoch vector.
func mixedScript(seed int64, sz sizes) *script {
	s := &script{Name: wlMixed, Preload: servePreload(seed, sz)}
	hot := hotVertices(s.Preload)
	for c := 0; c < sz.Conns; c++ {
		p := newPicker(laneRand(seed, wlMixed, c), hot)
		fresh := 0
		// The last edge of every batch goes to a vertex no other edge
		// touches, so the read-your-write probe has one exact answer
		// whatever the other connection has ingested meanwhile.
		ingest := func() (request, request) {
			es := make([]edge, sz.MixedIngestEdges)
			for i := range es {
				es[i] = edge{p.vertex(), p.vertex()}
				if (i+1)%sz.MixedFreshEvery == 0 {
					es[i].Dst = fmt.Sprintf("w%d%s", c, pad7(fresh))
					fresh++
				}
			}
			last := es[len(es)-1]
			probe := getAt(last.Src, last.Dst)
			probe.ReadYourWrite = true
			return postIngest(es), probe
		}
		var timed []unit
		for i := 0; i < sz.MixedCycles; i++ {
			in1, at1 := ingest()
			row1, bfs := getRow(p.vertex()), getBFS(p.vertex())
			in2, at2 := ingest()
			row2 := getRow(p.vertex())
			pr := getPageRank()
			pr.Check = (i+1)%sz.RankCheckEvery == 0
			timed = append(timed, unit{in1, at1, row1, bfs, in2, at2, row2, pr})
		}
		s.Lanes = append(s.Lanes, timed)
	}
	return s
}

// ingestScript is ingest_durable: one R-MAT stream cut into batches
// that both connections pull from one cursor.
func ingestScript(seed int64, sz sizes) *script {
	s := &script{Name: wlIngest}
	r := laneRand(seed, wlIngest, 0)
	total := sz.IngestBatches + sz.IngestTail
	ids := rmat(r, sz.IngestScale, total*sz.IngestBatchEdges)
	units := make([]unit, total)
	for b := range units {
		es := keyed(ids[b*sz.IngestBatchEdges : (b+1)*sz.IngestBatchEdges])
		// As in mixedScript: a probe edge with one exact answer.
		last := &es[len(es)-1]
		last.Dst = "p" + pad7(b)
		units[b] = unit{postIngest(es)}
		if b < sz.IngestBatches && (b+1)%sz.IngestReadEvery == 0 {
			probe := getAt(last.Src, last.Dst)
			probe.ReadYourWrite = true
			units[b] = append(units[b], probe)
		}
	}
	s.Lanes = [][]unit{units[:sz.IngestBatches]}
	s.Tail = units[sz.IngestBatches:]
	return s
}

// constructInput is the construct workload's graph: an edge list with
// the per-edge weights of the max.min loop.
type constructInput struct {
	Edges     []edge
	WOut, WIn []float64 // seed-drawn in 1..9
}

func edgeKey(i int) string { return "e" + pad7(i) }

func constructScript(seed int64, sz sizes) *constructInput {
	r := laneRand(seed, wlConstruct, 0)
	in := &constructInput{
		Edges: keyed(rmat(r, sz.ConstructScale, sz.ConstructEF<<sz.ConstructScale)),
	}
	in.WOut, in.WIn = make([]float64, len(in.Edges)), make([]float64, len(in.Edges))
	for i := range in.Edges {
		in.WOut[i] = float64(1 + r.Intn(9))
		in.WIn[i] = float64(1 + r.Intn(9))
	}
	return in
}

// wire is the construct input as bytes, for the determinism test.
func (in *constructInput) wire() []byte {
	var b bytes.Buffer
	for i, e := range in.Edges {
		fmt.Fprintf(&b, "%s %s %s %g %g\n", edgeKey(i), e.Src, e.Dst, in.WOut[i], in.WIn[i])
	}
	return b.Bytes()
}
