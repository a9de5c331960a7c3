// Command graphbench times adjacency construction over synthetic
// workloads — the scaling experiment (E11). It sweeps generator sizes
// and worker counts, and prints one row per configuration:
//
//	generator  vertices  edges  semiring  backend  workers  nnz  build_time  allocs_op  kb_op
//
// Usage:
//
//	graphbench                       # default R-MAT sweep, serial and all-cores
//	graphbench -gen er -n 2000 -p 0.002
//	graphbench -gen rmat -scale 12 -ef 8 -workers 8
//	graphbench -gen rmat -scale 14 -workersweep 1,2,4,8
//	graphbench -gen stream -scale 12 -deltas 100
//	graphbench -gen durable -scale 12 -deltas 100   # WAL fsync policies + recovery
//	graphbench -gen shard -scale 14 -deltas 40      # sharded vs single-view ingest
//	graphbench -gen algo             # algorithm kernels, assoc vs CSR
//	graphbench -gen bench4 -json BENCH_4.json   # the committed scaling artifact
//	graphbench -gen durable -json BENCH_5.json  # the committed durability artifact
//	graphbench -cpuprofile cpu.out -memprofile mem.out ...
//
// Every row records wall time plus allocation cost (allocs and KiB per
// operation, from runtime.MemStats deltas around the timed section), so
// a perf regression is diagnosable from the JSON artifact alone; the
// -cpuprofile/-memprofile flags capture pprof profiles of the whole run
// when the artifact alone isn't enough.
//
// The stream workload measures incremental maintenance: a warm
// adjacency view absorbs -deltas batches of 1% fresh edges each, and
// three rows come out — backend "stream_append" (mean wall time per
// delta-batch Append), "stream_materialize" (one backlog fold of all
// -deltas batches into the main adjacency, the Snapshot-time cost), and
// "stream_rebuild" (what the same delta would cost with a full
// Correlate rebuild at final size).
//
// The bench4 workload is the committed BENCH_4.json matrix: scales
// 12/14/16 × workers 1/2/4/8 over the construction engine and both
// stream arms.
//
// The durable workload is the committed BENCH_5.json matrix: the stream
// append workload through the write-ahead log under each fsync policy
// ("durable_append_batch" syncs every append, "_interval" every 100ms,
// "_off" never), the covering checkpoint write ("durable_checkpoint"),
// and both recovery shapes ("durable_recover_replay" re-applies the
// whole log, "durable_recover_checkpoint" loads the checkpoint).
//
// The shard workload is the committed BENCH_6.json matrix: 4 concurrent
// producers append delta batches through the goroutine-sharded view at
// shards 1/2/4/8 ("sharded_append", with shards=1 the single-view
// baseline) plus the scatter-gather materialize latency at each count
// ("sharded_materialize"). The workers column carries the shard count.
//
// The algo workload times the graph algorithms (BFS, SSSP, PageRank)
// on rmat-s12 and rmat-s14 adjacency arrays, one row per algorithm per
// execution path: backend "algo_<name>_assoc" iterates the map-backed
// assoc.Mul reference, backend "algo_<name>_csr" runs the CSR-native
// integer-id kernels. Both paths are cross-checked for equal results
// before their timings are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/render"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
	"adjarray/internal/wal"
)

// jsonRow is one configuration's result in the -json baseline file.
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
}

// jsonBaseline is the schema of the committed BENCH_*.json trajectory
// files: enough environment context to compare runs, one row per
// configuration.
type jsonBaseline struct {
	Timestamp  string    `json:"timestamp"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Rows       []jsonRow `json:"rows"`
}

// buildArm is one construction row. The engine's rows keep the labels
// the committed BENCH_1–4 baselines use, so benchdiff still pairs them:
// "csr" is the serial run and "parallel" the run at a worker count.
type buildArm struct {
	label   string
	backend core.Backend
	workers int // Request.Workers
	shown   int // the workers column
}

// parallelArm is the engine at w workers, where 0 keeps its historical
// meaning on a parallel row: all cores.
func parallelArm(w int) buildArm {
	req := w
	if w == 0 {
		req = -1
	}
	return buildArm{label: "parallel", workers: req, shown: w}
}

// measure is one timed section with its allocation cost.
type measure struct {
	elapsed time.Duration
	allocs  int64
	bytes   int64
}

// timed measures fn's wall time and allocation deltas. MemStats reads
// cost microseconds — noise against the millisecond-scale sections
// measured here.
func timed(fn func() error) (measure, error) {
	// Start every timed section from a collected heap: GC pauses land
	// inside whichever section happens to trip the pacer, which across
	// a multi-configuration sweep biases whole arms (the first
	// configuration grows the heap toward steady state and pays for
	// it). One explicit collection per section makes arms comparable;
	// allocation costs are still reported per arm.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return measure{
		elapsed: elapsed,
		allocs:  int64(m1.Mallocs - m0.Mallocs),
		bytes:   int64(m1.TotalAlloc - m0.TotalAlloc),
	}, err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphbench:", err)
	os.Exit(1)
}

func parseWorkerSweep(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := strconv.Atoi(f)
		if err != nil || w < 1 {
			fmt.Fprintf(os.Stderr, "graphbench: bad -workersweep entry %q\n", f)
			os.Exit(2)
		}
		out = append(out, w)
	}
	return out
}

func main() {
	gen := flag.String("gen", "sweep", "workload: rmat | er | bipartite | stream | shard | durable | algo | bench4 | sweep")
	deltas := flag.Int("deltas", 100, "stream workload: number of 1%% delta batches")
	scale := flag.Int("scale", 10, "R-MAT scale (2^scale vertices)")
	ef := flag.Int("ef", 8, "R-MAT edge factor")
	n := flag.Int("n", 1000, "Erdős–Rényi / bipartite vertex count")
	p := flag.Float64("p", 0.005, "Erdős–Rényi edge probability")
	sr := flag.String("semiring", "+.*", "operator pair")
	backend := flag.String("backend", "", "time this backend (dense | sharded) instead of the engine's csr and parallel rows")
	workers := flag.Int("workers", 0, "workers of the parallel row (0 = all cores)")
	workerSweepFlag := flag.String("workersweep", "", "comma-separated worker counts; each configuration runs once per count (e.g. 1,2,4,8)")
	flopFloor := flag.Int64("flopfloor", 0, "parallel serial-fallback flop threshold (0 = default, -1 = always parallel)")
	seed := flag.Int64("seed", 1, "generator seed")
	jsonPath := flag.String("json", "", "also write results as JSON to this path")
	reps := flag.Int("reps", 1, "repetitions per configuration (fastest kept)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile (after GC) to this path at exit")
	shardSpeedup := flag.Float64("shardspeedup", 0,
		"shard workload: fail unless sharded_append at 4 shards is at least this many times faster than at 1 shard (0 disables)")
	verify := flag.Bool("verify", false,
		"validate every result against a correctness oracle instead of trusting the fast path: "+
			"the dense Definition I.3 product when affordable, the serial two-phase reference otherwise; "+
			"the stream workload is checked against a full rebuild (exit 1 on divergence)")
	flag.Parse()

	if _, ok := semiring.Lookup(*sr); !ok {
		fmt.Fprintf(os.Stderr, "graphbench: unknown semiring %q\n", *sr)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	sweep := parseWorkerSweep(*workerSweepFlag)
	if len(sweep) == 0 {
		sweep = []int{*workers}
	}

	var rows [][]string
	var jrows []jsonRow
	emit := func(name string, vertices, edges int, backend string, w, nnz int, m measure) {
		rows = append(rows, []string{
			name, fmt.Sprint(vertices), fmt.Sprint(edges), *sr, backend,
			fmt.Sprint(w), fmt.Sprint(nnz),
			m.elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(m.allocs),
			fmt.Sprintf("%.0f", float64(m.bytes)/1024),
		})
		jrows = append(jrows, jsonRow{
			Generator: name, Vertices: vertices, Edges: edges, Semiring: *sr,
			Backend: backend, Workers: w, NNZ: nnz,
			BuildNs: m.elapsed.Nanoseconds(), AllocsOp: m.allocs, BytesOp: m.bytes,
		})
	}

	runOn := func(name string, g *graph.Graph, arms []buildArm) {
		one := func(graph.Edge) float64 { return 1 }
		eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
		if err != nil {
			fail(err)
		}
		var oracle *assoc.Array[float64]
		oracleName := ""
		if *verify {
			// The literal Definition I.3 oracle costs O(V²·E); past a
			// budget fall back to the serial engine, which the
			// conformance harness keeps pinned to the oracle.
			oracleBackend := core.BackendDense
			oracleName = string(oracleBackend)
			if v, e := g.Vertices().Len(), g.NumEdges(); int64(v)*int64(v)*int64(e) > 1<<27 {
				oracleBackend, oracleName = "", "csr"
			}
			r, err := core.Build(core.Request{Eout: eout, Ein: ein, Semiring: *sr, Backend: oracleBackend})
			if err != nil {
				fail(err)
			}
			oracle = r.Adjacency
		}
		for _, arm := range arms {
			var res *core.Result
			var best measure
			for rep := 0; rep < *reps || rep == 0; rep++ {
				var r *core.Result
				m, err := timed(func() error {
					var err error
					r, err = core.Build(core.Request{
						Eout: eout, Ein: ein, Semiring: *sr, Backend: arm.backend,
						Workers: arm.workers, FlopFloor: *flopFloor,
					})
					return err
				})
				if err != nil {
					fail(err)
				}
				if res == nil || m.elapsed < best.elapsed {
					res, best = r, m
				}
			}
			if oracle != nil {
				if diff := assoc.Diff(oracle, res.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
					fmt.Fprintf(os.Stderr, "graphbench: VERIFY FAILED: backend %s diverges from %s oracle on %s: %s\n",
						arm.label, oracleName, name, diff)
					os.Exit(1)
				}
			}
			emit(name, g.Vertices().Len(), g.NumEdges(), arm.label, arm.shown, res.Adjacency.NNZ(), best)
		}
	}

	// runStream measures the incremental-maintenance arms at one worker
	// count. A warm view of g absorbs `deltas` batches of 1% fresh edges
	// (endpoints resampled from the graph, keys continuing past the
	// log):
	//
	//   - "stream_append": mean per-batch Append wall time and
	//     allocations, with the default pending budget (folds included,
	//     amortized);
	//   - "stream_materialize": one backlog fold of all `deltas` batches
	//     (appended under an unbounded budget, then forced by Snapshot);
	//   - "stream_rebuild": one full Correlate at the final log size —
	//     what a rebuild-per-delta system would pay per batch.
	runStream := func(name string, g *graph.Graph, deltas, w int, emitRebuild bool) {
		sg := rand.New(rand.NewSource(*seed + 1))
		es := g.Edges()
		per := len(es) / 100
		if per == 0 {
			per = 1
		}
		one := func(graph.Edge) float64 { return 1 }
		eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
		if err != nil {
			fail(err)
		}
		entry, _ := semiring.Lookup(*sr)
		mulOpt := assoc.MulOptions{Workers: w, FlopFloor: *flopFloor}
		if w <= 1 {
			mulOpt.Workers = 0
		}
		v, err := stream.FromIncidence(eout, ein, entry.Ops, stream.Options{Mul: mulOpt})
		if err != nil {
			fail(err)
		}
		// Batches are pre-generated so the timed sections measure the
		// view, not fmt.Sprintf.
		seq := len(es)
		nextBatch := func() []stream.Edge[float64] {
			batch := make([]stream.Edge[float64], per)
			for i := range batch {
				e := es[sg.Intn(len(es))]
				batch[i] = stream.Weighted(fmt.Sprintf("e%08d", seq), e.Src, e.Dst, 1.0, 1)
				seq++
			}
			return batch
		}
		pregen := func() [][]stream.Edge[float64] {
			bs := make([][]stream.Edge[float64], deltas)
			for d := range bs {
				bs[d] = nextBatch()
			}
			return bs
		}
		var meanAppend measure
		for rep := 0; rep < *reps || rep == 0; rep++ {
			batches := pregen()
			appendTotal, err := timed(func() error {
				for _, b := range batches {
					if err := v.Append(b); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				fail(err)
			}
			m := measure{
				elapsed: appendTotal.elapsed / time.Duration(deltas),
				allocs:  appendTotal.allocs / int64(deltas),
				bytes:   appendTotal.bytes / int64(deltas),
			}
			if rep == 0 || m.elapsed < meanAppend.elapsed {
				meanAppend = m
			}
		}
		snap, err := v.Snapshot()
		if err != nil {
			fail(err)
		}
		logOut, logIn, err := snap.Logs()
		if err != nil {
			fail(err)
		}

		// Materialize arm: batches queue under an effectively unbounded
		// budget, then one Snapshot folds the whole backlog. Repetitions
		// refill the backlog with fresh batches (the log keeps growing —
		// pessimistic, never flattering).
		vm, err := stream.FromIncidence(logOut, logIn, entry.Ops, stream.Options{
			Mul: mulOpt, PendingBudget: 1 << 30,
		})
		if err != nil {
			fail(err)
		}
		var matBest measure
		for rep := 0; rep < *reps || rep == 0; rep++ {
			for _, b := range pregen() {
				if err := vm.Append(b); err != nil {
					fail(err)
				}
			}
			m, err := timed(func() error {
				_, err := vm.Snapshot()
				return err
			})
			if err != nil {
				fail(err)
			}
			if rep == 0 || m.elapsed < matBest.elapsed {
				matBest = m
			}
		}

		// The rebuild reference is always the serial Correlate — it does
		// not vary with the worker count, so sweeps emit it once.
		var rebuildBest measure
		var rebuilt *assoc.Array[float64]
		for rep := 0; (emitRebuild || *verify) && (rep < *reps || rep == 0); rep++ {
			var r *assoc.Array[float64]
			m, err := timed(func() error {
				var err error
				r, err = assoc.Correlate(logOut, logIn, entry.Ops, assoc.MulOptions{})
				return err
			})
			if err != nil {
				fail(err)
			}
			if rep == 0 || m.elapsed < rebuildBest.elapsed {
				rebuildBest = m
			}
			rebuilt = r
		}
		if *verify {
			if diff := assoc.Diff(rebuilt, snap.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
				fmt.Fprintf(os.Stderr, "graphbench: VERIFY FAILED: incremental view diverges from full rebuild on %s: %s\n",
					name, diff)
				os.Exit(1)
			}
		}
		V := g.Vertices().Len()
		// Serial stream rows are labelled workers=1 (the BENCH_2/3
		// convention), so benchdiff matches them across baselines.
		label := w
		if label < 1 {
			label = 1
		}
		emit(name, V, snap.Edges, "stream_append", label, snap.Adjacency.NNZ(), meanAppend)
		emit(name, V, snap.Edges, "stream_materialize", label, snap.Adjacency.NNZ(), matBest)
		if emitRebuild {
			emit(name, V, snap.Edges, "stream_rebuild", 1, snap.Adjacency.NNZ(), rebuildBest)
		}
	}

	// runDurable measures the durability tax: the stream arm's
	// delta-batch append workload run through a WAL-backed view under
	// each fsync policy (per-batch fsync, interval, none), plus the
	// checkpoint write and both recovery shapes — a cold replay of the
	// whole log and a load of the covering checkpoint. Every arm gets a
	// fresh store directory; recovered state is differentially checked
	// against the in-memory view under -verify.
	runDurable := func(name string, g *graph.Graph, deltas int) {
		sg := rand.New(rand.NewSource(*seed + 1))
		es := g.Edges()
		per := len(es) / 100
		if per == 0 {
			per = 1
		}
		entry, _ := semiring.Lookup(*sr)
		V := g.Vertices().Len()
		pregen := func() [][]stream.Edge[float64] {
			seq := 0
			bs := make([][]stream.Edge[float64], deltas)
			for d := range bs {
				batch := make([]stream.Edge[float64], per)
				for i := range batch {
					e := es[sg.Intn(len(es))]
					batch[i] = stream.Weighted(fmt.Sprintf("e%08d", seq), e.Src, e.Dst, 1.0, 1)
					seq++
				}
				bs[d] = batch
			}
			return bs
		}
		openStore := func(p wal.SyncPolicy) (*stream.Store[float64], string) {
			dir, err := os.MkdirTemp("", "graphbench-durable-*")
			if err != nil {
				fail(err)
			}
			d, err := stream.Open(dir, entry.Ops, 1, stream.Options{}, stream.DurableOptions[float64]{
				WAL: wal.Options{Policy: p},
			})
			if err != nil {
				fail(err)
			}
			return d, dir
		}
		arms := []struct {
			backend string
			policy  wal.SyncPolicy
		}{
			{"durable_append_batch", wal.SyncEveryAppend},
			{"durable_append_interval", wal.SyncInterval},
			{"durable_append_off", wal.SyncNever},
		}
		// One store per policy survives the append arms: the off store
		// keeps its bare log for the replay arm, the batch store gains a
		// checkpoint for the checkpoint arms.
		var replayDir, ckptDir string
		var nnz, edges int
		for _, arm := range arms {
			var best measure
			var keepDir string
			for rep := 0; rep < *reps || rep == 0; rep++ {
				d, dir := openStore(arm.policy)
				batches := pregen()
				total, err := timed(func() error {
					for _, b := range batches {
						if err := d.Append(b); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					fail(err)
				}
				snap, err := d.Snapshot()
				if err != nil {
					fail(err)
				}
				nnz, edges = snap.Adjacency.NNZ(), snap.Edges
				if *verify {
					eout, ein, err := snap.Logs()
					if err != nil {
						fail(err)
					}
					want, err := assoc.Correlate(eout, ein, entry.Ops, assoc.MulOptions{})
					if err != nil {
						fail(err)
					}
					if diff := assoc.Diff(want, snap.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
						fmt.Fprintf(os.Stderr, "graphbench: VERIFY FAILED: durable store diverges from full rebuild on %s: %s\n", name, diff)
						os.Exit(1)
					}
				}
				if err := d.Close(); err != nil {
					fail(err)
				}
				m := measure{
					elapsed: total.elapsed / time.Duration(deltas),
					allocs:  total.allocs / int64(deltas),
					bytes:   total.bytes / int64(deltas),
				}
				if rep == 0 || m.elapsed < best.elapsed {
					best = m
				}
				if keepDir != "" {
					os.RemoveAll(keepDir)
				}
				keepDir = dir
			}
			emit(name, V, edges, arm.backend, 1, nnz, best)
			switch arm.policy {
			case wal.SyncNever:
				replayDir = keepDir
			case wal.SyncEveryAppend:
				ckptDir = keepDir
			default:
				os.RemoveAll(keepDir)
			}
		}
		defer os.RemoveAll(replayDir)
		defer os.RemoveAll(ckptDir)

		// Recovery arm 1: cold replay of the bare log (no checkpoint).
		var best measure
		for rep := 0; rep < *reps || rep == 0; rep++ {
			m, err := timed(func() error {
				d, err := stream.Open(replayDir, entry.Ops, 1, stream.Options{}, stream.DurableOptions[float64]{})
				if err != nil {
					return err
				}
				return d.Close()
			})
			if err != nil {
				fail(err)
			}
			if rep == 0 || m.elapsed < best.elapsed {
				best = m
			}
		}
		emit(name, V, edges, "durable_recover_replay", 1, nnz, best)

		// Checkpoint arm: one covering checkpoint of the final state.
		{
			d, err := stream.Open(ckptDir, entry.Ops, 1, stream.Options{}, stream.DurableOptions[float64]{})
			if err != nil {
				fail(err)
			}
			m, err := timed(d.Checkpoint)
			if err != nil {
				fail(err)
			}
			if err := d.Close(); err != nil {
				fail(err)
			}
			emit(name, V, edges, "durable_checkpoint", 1, nnz, m)
		}

		// Recovery arm 2: load the covering checkpoint (no tail).
		for rep := 0; rep < *reps || rep == 0; rep++ {
			m, err := timed(func() error {
				d, err := stream.Open(ckptDir, entry.Ops, 1, stream.Options{}, stream.DurableOptions[float64]{})
				if err != nil {
					return err
				}
				return d.Close()
			})
			if err != nil {
				fail(err)
			}
			if rep == 0 || m.elapsed < best.elapsed {
				best = m
			}
		}
		emit(name, V, edges, "durable_recover_checkpoint", 1, nnz, best)
	}

	// runShard measures the goroutine-sharded ingest against the
	// single-view baseline: 4 concurrent producers push -deltas
	// delta-batches (auto-assigned keys — the adjserve front's write
	// shape) through a stream.Store at each shard count; shards=1 is
	// the one-shard store (one view, one lock), so the workers column
	// doubles as the shard axis and the 1-row is the baseline.
	//
	//   - "sharded_append": mean per-batch wall time across the
	//     producers (aggregate throughput is its inverse);
	//   - "sharded_materialize": one scatter-gather fold — every shard's
	//     backlog materialized and the per-shard adjacencies ⊕-merged
	//     into the gathered snapshot.
	runShard := func(name string, g *graph.Graph, deltas int, counts []int) {
		es := g.Edges()
		per := len(es) / 100
		if per == 0 {
			per = 1
		}
		entry, _ := semiring.Lookup(*sr)
		V := g.Vertices().Len()
		const producers = 4
		// Every call regenerates the SAME batches: all shard counts, reps,
		// and arms measure one workload, so the rows compare directly.
		pregen := func() [][][]stream.Edge[float64] {
			sg := rand.New(rand.NewSource(*seed + 2))
			lists := make([][][]stream.Edge[float64], producers)
			for d := 0; d < deltas; d++ {
				batch := make([]stream.Edge[float64], per)
				for i := range batch {
					e := es[sg.Intn(len(es))]
					batch[i] = stream.Weighted("", e.Src, e.Dst, 1.0, 1)
				}
				lists[d%producers] = append(lists[d%producers], batch)
			}
			return lists
		}
		appendAll := func(sv *stream.Store[float64], lists [][][]stream.Edge[float64]) error {
			var wg sync.WaitGroup
			errs := make([]error, producers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for _, b := range lists[p] {
						if err := sv.Append(b); err != nil {
							errs[p] = err
							return
						}
					}
				}(p)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}
		memStore := func(n int, opt stream.Options) *stream.Store[float64] {
			sv, err := stream.Open("", entry.Ops, n, opt, stream.DurableOptions[float64]{})
			if err != nil {
				fail(err)
			}
			return sv
		}
		for _, n := range counts {
			var appendBest measure
			var nnz, edges int
			for rep := 0; rep < *reps || rep == 0; rep++ {
				sv := memStore(n, stream.Options{})
				lists := pregen()
				total, err := timed(func() error { return appendAll(sv, lists) })
				if err != nil {
					fail(err)
				}
				m := measure{
					elapsed: total.elapsed / time.Duration(deltas),
					allocs:  total.allocs / int64(deltas),
					bytes:   total.bytes / int64(deltas),
				}
				if rep == 0 || m.elapsed < appendBest.elapsed {
					appendBest = m
				}
				snap, err := sv.Snapshot()
				if err != nil {
					fail(err)
				}
				nnz, edges = snap.Adjacency.NNZ(), snap.Edges
				if *verify {
					eout, ein, err := snap.Logs()
					if err != nil {
						fail(err)
					}
					want, err := assoc.Correlate(eout, ein, entry.Ops, assoc.MulOptions{})
					if err != nil {
						fail(err)
					}
					if diff := assoc.Diff(want, snap.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
						fmt.Fprintf(os.Stderr, "graphbench: VERIFY FAILED: %d-shard gather diverges from full rebuild on %s: %s\n", n, name, diff)
						os.Exit(1)
					}
				}
			}
			emit(name, V, edges, "sharded_append", n, nnz, appendBest)

			// Materialize: the whole backlog queues (unbounded budget),
			// then one gather folds every shard and ⊕-merges.
			var matBest measure
			for rep := 0; rep < *reps || rep == 0; rep++ {
				sv := memStore(n, stream.Options{PendingBudget: 1 << 30})
				if err := appendAll(sv, pregen()); err != nil {
					fail(err)
				}
				m, err := timed(func() error {
					_, err := sv.Snapshot()
					return err
				})
				if err != nil {
					fail(err)
				}
				if rep == 0 || m.elapsed < matBest.elapsed {
					matBest = m
				}
			}
			emit(name, V, edges, "sharded_materialize", n, nnz, matBest)
		}
		if *shardSpeedup > 0 {
			var t1, t4 int64
			for _, r := range jrows {
				if r.Generator == name && r.Backend == "sharded_append" {
					switch r.Workers {
					case 1:
						t1 = r.BuildNs
					case 4:
						t4 = r.BuildNs
					}
				}
			}
			if t1 == 0 || t4 == 0 {
				fmt.Fprintln(os.Stderr, "graphbench: -shardspeedup needs the 1- and 4-shard sharded_append rows")
				os.Exit(1)
			}
			ratio := float64(t1) / float64(t4)
			fmt.Fprintf(os.Stderr, "graphbench: %s aggregate append speedup at 4 shards: %.2fx\n", name, ratio)
			if ratio < *shardSpeedup {
				fmt.Fprintf(os.Stderr, "graphbench: FAIL: speedup %.2fx < required %.2fx\n", ratio, *shardSpeedup)
				os.Exit(1)
			}
		}
	}

	// runAlgo measures the algorithm arms: the assoc.Mul reference loop
	// against the CSR-native kernels on one adjacency array, with the
	// results differentially checked before timings count.
	runAlgo := func(name string, g *graph.Graph) {
		one := func(graph.Edge) float64 { return 1 }
		eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
		if err != nil {
			fail(err)
		}
		res, err := core.Build(core.Request{Eout: eout, Ein: ein, Semiring: *sr})
		if err != nil {
			fail(err)
		}
		adj := res.Adjacency
		cg, err := algo.FromArray(adj)
		if err != nil {
			fail(err)
		}
		// Deterministic high-degree source.
		src := adj.RowKeys().Key(0)
		best := -1
		for i := 0; i < adj.RowKeys().Len(); i++ {
			if d := adj.Matrix().RowNNZ(i); d > best {
				best, src = d, adj.RowKeys().Key(i)
			}
		}
		const damping, tol, prIters = 0.85, 1e-10, 30
		arms := []struct {
			backend string
			run     func() (any, error)
		}{
			{"algo_bfs_assoc", func() (any, error) { return algo.BFSLevels(adj, src) }},
			{"algo_bfs_csr", func() (any, error) { return cg.BFSLevels(src) }},
			{"algo_sssp_assoc", func() (any, error) { return algo.SSSP(adj, src) }},
			{"algo_sssp_csr", func() (any, error) { return cg.SSSP(src) }},
			{"algo_pagerank_assoc", func() (any, error) {
				rank, _, err := algo.PageRank(adj, damping, tol, prIters)
				return rank, err
			}},
			{"algo_pagerank_csr", func() (any, error) {
				rank, _, err := cg.PageRank(damping, tol, prIters)
				return rank, err
			}},
		}
		results := make([]any, len(arms))
		for i, arm := range arms {
			var bestM measure
			for rep := 0; rep < *reps || rep == 0; rep++ {
				var out any
				m, err := timed(func() error {
					var err error
					out, err = arm.run()
					return err
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "graphbench: %s: %v\n", arm.backend, err)
					os.Exit(1)
				}
				if rep == 0 || m.elapsed < bestM.elapsed {
					bestM = m
				}
				results[i] = out
			}
			// Each csr arm must reproduce its assoc oracle exactly.
			if i%2 == 1 && fmt.Sprintf("%v", results[i]) != fmt.Sprintf("%v", results[i-1]) {
				fmt.Fprintf(os.Stderr, "graphbench: VERIFY FAILED: %s diverges from %s on %s\n",
					arm.backend, arms[i-1].backend, name)
				os.Exit(1)
			}
			emit(name, g.Vertices().Len(), g.NumEdges(), arm.backend, 1, adj.NNZ(), bestM)
		}
	}

	// run times one serial row plus a parallel row per sweep entry, or
	// the -backend alone.
	run := func(name string, g *graph.Graph) {
		if *backend != "" {
			runOn(name, g, []buildArm{{label: *backend, backend: core.Backend(*backend), workers: *workers, shown: *workers}})
			return
		}
		arms := []buildArm{{label: "csr", shown: *workers}}
		for _, w := range sweep {
			arms = append(arms, parallelArm(w))
		}
		runOn(name, g, arms)
	}

	r := rand.New(rand.NewSource(*seed))
	switch *gen {
	case "rmat":
		run("rmat", dataset.RMAT(r, *scale, *ef))
	case "er":
		run("er", dataset.ErdosRenyi(r, *n, *p))
	case "bipartite":
		run("bipartite", dataset.Bipartite(r, *n, *n, *n**ef))
	case "stream":
		for i, w := range sweep {
			runStream(fmt.Sprintf("rmat-s%d", *scale), dataset.RMAT(rand.New(rand.NewSource(*seed)), *scale, *ef), *deltas, w, i == 0)
		}
	case "durable":
		runDurable(fmt.Sprintf("rmat-s%d", *scale), dataset.RMAT(rand.New(rand.NewSource(*seed)), *scale, *ef), *deltas)
	case "shard":
		runShard(fmt.Sprintf("rmat-s%d", *scale), dataset.RMAT(rand.New(rand.NewSource(*seed)), *scale, *ef), *deltas, []int{1, 2, 4, 8})
	case "algo":
		for _, s := range []int{12, 14} {
			runAlgo(fmt.Sprintf("rmat-s%d", s), dataset.RMAT(rand.New(rand.NewSource(*seed)), s, *ef))
		}
	case "bench4":
		// The committed BENCH_4.json matrix: construction + both stream
		// arms across scales and worker counts. The flag sweep (or its
		// 1/2/4/8 default) applies to every arm.
		ws := sweep
		if *workerSweepFlag == "" {
			ws = []int{1, 2, 4, 8}
		}
		for _, s := range []int{12, 14, 16} {
			name := fmt.Sprintf("rmat-s%d", s)
			g := dataset.RMAT(rand.New(rand.NewSource(*seed)), s, *ef)
			arms := make([]buildArm, len(ws))
			for i, w := range ws {
				arms[i] = parallelArm(w)
			}
			runOn(name, g, arms)
			for i, w := range ws {
				runStream(name, g, *deltas, w, i == 0)
			}
		}
	case "sweep":
		for _, s := range []int{8, 10, 12} {
			run(fmt.Sprintf("rmat-s%d", s), dataset.RMAT(r, s, *ef))
		}
		run("er", dataset.ErdosRenyi(r, *n, *p))
		run("bipartite", dataset.Bipartite(r, *n, *n, 8**n))
		for i, w := range sweep {
			runStream("rmat-s12", dataset.RMAT(rand.New(rand.NewSource(*seed)), 12, *ef), *deltas, w, i == 0)
		}
	default:
		fmt.Fprintf(os.Stderr, "graphbench: unknown generator %q\n", *gen)
		os.Exit(2)
	}

	fmt.Print(render.Columns(
		[]string{"generator", "vertices", "edges", "semiring", "backend", "workers", "nnz", "build_time", "allocs_op", "kb_op"},
		rows,
	))

	if *jsonPath != "" {
		baseline := jsonBaseline{
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed:       *seed,
			Rows:       jrows,
		}
		data, err := json.MarshalIndent(baseline, "", "  ")
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "graphbench: wrote %s (%d rows)\n", *jsonPath, len(jrows))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}
