// Command adjserve maintains an adjacency array over a stream of edge
// triples and answers queries against live snapshots — the paper's
// construction A = Eoutᵀ ⊕.⊗ Ein run as a serving process instead of a
// batch job.
//
// Edges arrive one per line on stdin (or -in file), whitespace-separated:
//
//	src dst [out [in]]         (edge keys auto-assigned in arrival order)
//	key src dst [out [in]]     (with -keyed; keys must arrive ascending)
//
// Omitted weights select the algebra's One (the unweighted convention);
// provided weights are ingested literally, including the algebra's Zero
// (which annihilates: such an edge contributes no adjacency entry).
// Lines starting with '#' and blank lines are skipped.
//
// Ingest is sharded by default: -shards (default GOMAXPROCS) partitions
// the vertex space by source-vertex hash across goroutine-shards, each
// owning its own view (and, when durable, its own WAL and checkpoints),
// so appends to different shards never contend on one lock. Queries
// resolve against scatter-gather snapshots pinned at one consistent
// epoch per shard — every response carries that epoch vector. One shard
// is -shards 1: the same store, nothing to scatter or gather.
//
// With -serve the process answers HTTP queries from live snapshots
// while ingesting (see internal/serve, the production front door):
//
//	GET /stats               ingest counters (JSON; aggregate plus per-shard breakdown)
//	GET /healthz             liveness + durability position (per-shard epoch vectors and their sums, WAL lag)
//	GET /metrics             Prometheus text exposition (latency histograms, epochs, WAL lag, admission)
//	GET /at?src=a&dst=b      one adjacency entry
//	GET /row?src=a           one row of the adjacency array
//	GET /triples?limit=n     adjacency triples, capped (default 10000, clamped to -triples-max)
//	POST /ingest             append a batch of edges ({"edges":[{"src":..,"dst":..},...]})
//	GET /bfs?src=a           breadth-first levels from a   (CSR kernels)
//	GET /sssp?src=a          min.+ shortest-path distances from a
//	GET /widest?src=a        max.min bottleneck widths from a
//	GET /pagerank?damping=&tol=&iters=   damped PageRank of the pattern
//	GET /triangles           triangle count (symmetric patterns)
//	POST /batch              many ops against one pinned snapshot ({"ops":[...]})
//
// Algorithm queries run on the CSR-native kernels over a Graph built
// from the current snapshot and cached per epoch vector, so a burst of
// queries against an unchanged graph pays the id-space embedding once.
//
// Serving is overload-safe: cheap point reads and expensive algorithm
// queries run in separate bounded worker pools (-read-workers,
// -algo-workers) with queue-depth admission control (-read-queue,
// -algo-queue); excess load is shed as 429 + Retry-After instead of
// piling up goroutines. The repository's benchmark (bench/) drives this
// front door as a child process.
//
// With -data-dir the store is durable: on start the view is recovered
// from the newest valid checkpoint plus a WAL replay (the recovered and
// durable epochs are logged), every ingested batch is written ahead to
// the log under the -fsync policy (batch, interval, or off), background
// checkpoints run every -checkpoint-every batches, and shutdown —
// stream end or SIGINT/SIGTERM — flushes partial batches and writes a
// final covering checkpoint before the process exits. One shard keeps
// its WAL and checkpoints at the directory root; several keep one
// subdirectory each plus a SHARDS meta file. Reopening with -shards
// left at its default adopts the count the directory holds; an explicit
// different count is refused (it would re-partition the vertex space).
//
// A storage fault (failed fsync, ENOSPC, I/O error on the WAL) wedges
// the durable store read-only rather than risking silent data loss.
// Without -serve that is fatal; with -serve the process keeps
// answering every read endpoint from the last good snapshot while
// ingest sheds — stdin ingest stops with a logged warning and POST
// /ingest answers 503 + Retry-After. /healthz and the
// adjserve_storage_* metrics report the ok → degraded → read-only
// state machine; recovery is a restart against the repaired disk.
//
// With -debug-addr a second listener, on its own mux and outside the
// front door's admission control, answers what "what is the process doing
// right now" needs: /debug/pprof/ (net/http/pprof), /debug/trace/start and
// /debug/trace/stop (a runtime/trace of the window between the two calls),
// and /metrics — the same registry as the front door's, to which it adds
// the adjserve_runtime_* gauges read from runtime/metrics (debug.go).
//
// The process exits when the input stream ends (unless -serve keeps it
// answering queries) and shuts down cleanly on SIGINT/SIGTERM.
//
// Usage:
//
//	generate_edges | adjserve -semiring +.* -serve :8080
//	adjserve -in edges.tsv -keyed -semiring max.plus -batch 256
//	adjserve -in edges.tsv -data-dir /var/lib/adjserve -fsync batch -shards 4
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adjarray/internal/core"
	"adjarray/internal/serve"
	"adjarray/internal/stream"
	"adjarray/internal/value"
	"adjarray/internal/wal"
)

// config carries the parsed flags.
type config struct {
	semiring      string
	in            string
	keyed         bool
	batch         int
	shards        int
	compactEvery  int
	check         bool
	serve         string
	debugAddr     string
	flushEvery    time.Duration
	skip          bool
	dataDir       string
	fsync         string
	fsyncInterval time.Duration
	ckptEvery     int

	// Front-door tuning (see internal/serve.Options).
	readWorkers int
	readQueue   int
	algoWorkers int
	algoQueue   int
	retryAfter  time.Duration
	triplesMax  int
	maxIters    int
	batchMaxOps int
}

// serveOptions maps the flags onto the front-door options.
func (cfg config) serveOptions() serve.Options {
	return serve.Options{
		TriplesMax:  cfg.triplesMax,
		MaxIters:    cfg.maxIters,
		MaxBatchOps: cfg.batchMaxOps,
		ReadWorkers: cfg.readWorkers,
		ReadQueue:   cfg.readQueue,
		AlgoWorkers: cfg.algoWorkers,
		AlgoQueue:   cfg.algoQueue,
		RetryAfter:  cfg.retryAfter,
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.semiring, "semiring", "+.*", "operator pair (registry name)")
	flag.StringVar(&cfg.in, "in", "-", "edge stream: file path or - for stdin")
	flag.BoolVar(&cfg.keyed, "keyed", false, "lines carry an explicit leading edge key")
	flag.IntVar(&cfg.batch, "batch", 512, "edges per delta batch")
	flag.IntVar(&cfg.shards, "shards", -1, "goroutine-shards for ingest (route-by-hash on src); < 0 = GOMAXPROCS, or what -data-dir already holds")
	flag.IntVar(&cfg.compactEvery, "compact-every", 0, "auto-Compact after this many batches (0 = never)")
	flag.BoolVar(&cfg.check, "check", false, "sample the ⊕-associativity guard on every batch")
	flag.StringVar(&cfg.serve, "serve", "", "HTTP listen address for snapshot queries (e.g. :8080); empty = ingest only")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "listen address for pprof, runtime/trace and runtime metrics (e.g. 127.0.0.1:6060), outside admission control; empty = off")
	flag.DurationVar(&cfg.flushEvery, "flush-every", time.Second, "with -serve, flush partial batches at this interval so slow streams stay visible")
	flag.BoolVar(&cfg.skip, "skip-condition-check", false, "accept pairs that fail the Theorem II.1 conditions")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durability directory: recover on start, WAL every batch, checkpoint on shutdown; empty = in-memory")
	flag.StringVar(&cfg.fsync, "fsync", "batch", "WAL fsync policy: batch (sync every append), interval, or off")
	flag.DurationVar(&cfg.fsyncInterval, "fsync-interval", 100*time.Millisecond, "sync cadence for -fsync interval")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 256, "background checkpoint after this many batches (0 = only at shutdown)")
	flag.IntVar(&cfg.readWorkers, "read-workers", 0, "concurrent cheap reads (/at, /row, /triples); 0 = default 64")
	flag.IntVar(&cfg.readQueue, "read-queue", 0, "cheap reads that may wait for a worker before shedding 429; 0 = default 256, negative = no queue")
	flag.IntVar(&cfg.algoWorkers, "algo-workers", 0, "concurrent algorithm queries (/bfs, /pagerank, /batch, ...); 0 = GOMAXPROCS")
	flag.IntVar(&cfg.algoQueue, "algo-queue", 0, "algorithm queries that may wait before shedding 429; 0 = 4x workers, negative = no queue")
	flag.DurationVar(&cfg.retryAfter, "retry-after", time.Second, "Retry-After hint on shed (429) responses")
	flag.IntVar(&cfg.triplesMax, "triples-max", 0, "hard clamp on /triples ?limit; 0 = default 100000")
	flag.IntVar(&cfg.maxIters, "max-iters", 0, "server bound on /pagerank ?iters; 0 = default 1000")
	flag.IntVar(&cfg.batchMaxOps, "batch-max-ops", 0, "ops allowed per POST /batch request; 0 = default 256")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "adjserve:", err)
		os.Exit(1)
	}
}

// run owns the whole process lifecycle. Fatal conditions propagate as
// errors back to main — no goroutine calls os.Exit, so deferred cleanup
// (closing the input file, shutting the server down) always runs — and
// SIGINT/SIGTERM cancel the context for a clean exit instead of the
// process parking on a bare select {} forever.
func run(cfg config) error {
	opt := core.IngestOptions{
		Semiring:  cfg.semiring,
		BatchSize: cfg.batch,
		Shards:    cfg.shards,
		Stream: stream.Options{
			CompactEvery:     cfg.compactEvery,
			CheckAssociative: cfg.check,
		},
		SkipConditionCheck: cfg.skip,
	}
	if cfg.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		opt.DataDir = cfg.dataDir
		opt.Durable = stream.DurableOptions[float64]{
			WAL:             wal.Options{Policy: policy, Interval: cfg.fsyncInterval},
			CheckpointEvery: cfg.ckptEvery,
		}
	}
	ing, err := core.NewIngest(opt)
	if err != nil {
		return err
	}
	store := ing.Store()
	if store.Persistent() {
		recs, durs := store.Recovery(), store.Durability()
		replayed, torn := 0, int64(0)
		epochs := make([]uint64, len(durs))
		var load time.Duration // shards open one after another
		for i := range recs {
			replayed += recs[i].Replayed
			torn += recs[i].TornBytes
			epochs[i] = durs[i].Epoch
			load += recs[i].CheckpointLoad
		}
		fmt.Fprintf(os.Stderr,
			"adjserve: recovered %d shards from %s — epoch vector %v, checkpoints loaded in %s, %d batches replayed, %d torn bytes truncated, fsync=%s\n",
			store.Shards(), cfg.dataDir, epochs, load.Round(time.Microsecond), replayed, torn, durs[0].Policy)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f := newFront(ing, cfg.batch)
	fatal := make(chan error, 3) // server, debug listener or flusher failure

	// Every exit path — stream end, SIGINT/SIGTERM, fatal server error —
	// flushes buffered edges, writes a final covering checkpoint, and
	// closes the log; a crash between here and exit is then recoverable
	// from the checkpoint alone.
	defer func() {
		if err := f.flush(); err != nil {
			fmt.Fprintln(os.Stderr, "adjserve: final flush:", err)
		}
		if err := ing.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "adjserve: durability shutdown:", err)
		} else if store.Persistent() {
			fmt.Fprintln(os.Stderr, "adjserve: final per-shard checkpoints written")
		}
	}()

	var srv *http.Server
	var reg *serve.Registry // the front door's, when there is one
	if cfg.serve != "" {
		door := serve.New(ing, cfg.serveOptions())
		reg = door.Metrics()
		srv = &http.Server{
			Addr:    cfg.serve,
			Handler: door,
			// Slow or stalled clients must not pin serving goroutines (or
			// hold snapshot memory) forever.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal <- fmt.Errorf("serve: %w", err)
			}
		}()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutCtx)
		}()
		fmt.Fprintf(os.Stderr, "adjserve: serving snapshot queries on %s\n", cfg.serve)
	}
	if cfg.debugAddr != "" {
		// Up before the first line is read, so a preload can be profiled.
		dbg := &http.Server{Addr: cfg.debugAddr, Handler: debugMux(reg), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "adjserve: pprof, trace and runtime metrics on %s\n", cfg.debugAddr)
	}

	// The flusher keeps partial batches visible on slow streams. It is a
	// ticker goroutine with an explicit stop: once the input stream ends
	// (or the process is interrupted) it terminates instead of flushing —
	// and leaking — forever, as the old time.Tick loop did.
	flushStop := make(chan struct{})
	var flushWG sync.WaitGroup
	if srv != nil && cfg.flushEvery > 0 {
		flushWG.Add(1)
		go func() {
			defer flushWG.Done()
			t := time.NewTicker(cfg.flushEvery)
			defer t.Stop()
			for {
				select {
				case <-flushStop:
					return
				case <-ctx.Done():
					return
				case <-t.C:
					if err := f.flush(); err != nil {
						if errors.Is(err, stream.ErrReadOnly) {
							// The store wedged read-only; the server keeps
							// answering reads, so stop flushing instead of
							// killing the process.
							fmt.Fprintln(os.Stderr, "adjserve: storage read-only; periodic flush stopped:", err)
							return
						}
						fatal <- fmt.Errorf("flush: %w", err)
						return
					}
				}
			}
		}()
	}

	src := io.Reader(os.Stdin)
	if cfg.in != "-" {
		file, err := os.Open(cfg.in)
		if err != nil {
			return err
		}
		defer file.Close()
		src = file
	}

	start := time.Now()
	ingested := make(chan error, 1)
	go func() { ingested <- ingest(src, cfg.keyed, f) }()

	readOnly := false
	select {
	case err := <-ingested:
		if err != nil {
			if srv == nil || !errors.Is(err, stream.ErrReadOnly) {
				return err
			}
			// Degraded mode: the durable store wedged read-only
			// mid-stream. Without a server that is fatal; with one, the
			// read endpoints still answer from the last good snapshot, so
			// shed ingest and keep serving until the operator restarts
			// against the repaired disk.
			readOnly = true
			fmt.Fprintln(os.Stderr, "adjserve: storage read-only; stream ingest stopped, still serving reads:", err)
		}
	case err := <-fatal:
		return err
	case <-ctx.Done():
		// Interrupted mid-stream: report what was ingested and exit
		// cleanly (deferred server shutdown and file close still run).
		close(flushStop)
		flushWG.Wait()
		fmt.Fprintln(os.Stderr, "adjserve: interrupted")
		return nil
	}
	close(flushStop)
	flushWG.Wait()

	if readOnly {
		// Skip the final flush and stats — both would just re-report the
		// wedge — and park in the serving loop.
		select {
		case <-ctx.Done():
			return nil
		case err := <-fatal:
			return err
		}
	}

	if err := f.flush(); err != nil {
		return err
	}
	pinStart := time.Now()
	if _, err := store.Pin(); err != nil { // fold every shard for the final stats; nothing needs the gather
		return err
	}
	pin := time.Since(pinStart)
	st := store.Stats()
	folded := 0 // shards that have folded
	for _, ps := range st.PerShard {
		if ps.Folds > 0 {
			folded++
		}
	}
	// The shards fold at once, so on several cores the pin's wall time is
	// less than the fold time summed over them.
	fmt.Fprintf(os.Stderr,
		"adjserve: ingested %d edges in %v across %d shards — %d adjacency entries (%d pending), epoch vector %v, exact=%v, pin %v, folds %v over %d shards\n",
		f.edges.Load(), time.Since(start).Round(time.Millisecond),
		st.Shards, st.AdjNNZ, st.Pending, st.Epochs, st.Exact,
		pin.Round(time.Microsecond), time.Duration(st.FoldNanos).Round(time.Microsecond), folded)

	if srv != nil {
		fmt.Fprintln(os.Stderr, "adjserve: stream ended; still serving (interrupt to exit)")
		select {
		case <-ctx.Done():
			return nil
		case err := <-fatal:
			return err
		}
	}
	return nil
}

// front is the ingest-side write path. The process-wide critical
// section is the local batch buffer and the edge counter (an atomic);
// the append itself — scatter, per-shard key assignment, fold, WAL
// write — runs OUTSIDE that lock against the store's per-shard locks,
// so concurrent producers (and the periodic flusher) only contend when
// they touch the same shard. A small ordering mutex serializes buffer
// swap + append so batches reach each shard in arrival order, which
// keeps explicit -keyed streams within the per-shard ascending-key
// discipline.
type front struct {
	ing  *core.Ingest
	size int

	mu    sync.Mutex // batch-buffer guard only
	amu   sync.Mutex // swap+append ordering (never held while buffering edges)
	buf   []stream.Edge[float64]
	spare []stream.Edge[float64] // the previous flush's buffer, reused under amu
	edges atomic.Int64
}

func newFront(ing *core.Ingest, batch int) *front {
	if batch <= 0 {
		batch = 512
	}
	return &front{
		ing: ing, size: batch,
		buf:   make([]stream.Edge[float64], 0, batch),
		spare: make([]stream.Edge[float64], 0, batch),
	}
}

// addAll buffers the edges of one read, taking the buffer lock once per
// batch they fill rather than once per edge, and flushes each full batch
// — the store sees the same batches whatever the reads were.
func (f *front) addAll(es []stream.Edge[float64]) error {
	for len(es) > 0 {
		f.mu.Lock()
		n := min(len(es), f.size-len(f.buf)) // > 0: whoever fills the buffer flushes it
		f.buf = append(f.buf, es[:n]...)
		full := len(f.buf) >= f.size
		f.mu.Unlock()
		f.edges.Add(int64(n))
		es = es[n:]
		if full {
			if err := f.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush appends whatever is buffered: the buffer is swapped for the
// spare under the narrow lock and appended outside it.
func (f *front) flush() error {
	f.amu.Lock()
	defer f.amu.Unlock()
	f.mu.Lock()
	b := f.buf
	f.buf = f.spare
	f.mu.Unlock()
	err := f.ing.AppendBatch(b)
	clear(b) // the store keeps nothing of the batch; neither should we
	f.spare = b[:0]
	return err
}

// maxLine bounds one line of the stream: a line this long or longer,
// its terminator aside, is refused.
const maxLine = 1 << 20

// ingest drains the edge stream into the front, which counts accepted
// edges on its atomic counter. Each Read's complete lines become ONE
// string, every field of every edge a substring of it, and the read's
// edges reach the front together — no string per line, no field slice per
// line, no lock per edge. They reach it on a second goroutine
// (appender), so the store appends one read's edges while the next read
// is parsed; two edge buffers take turns. A Read returns what is there,
// so a slow stream's edges are buffered (and flushed by the ticker) as
// they arrive. An error names its line; an append error names the last
// line of the read whose edges were being handed over, and is reported
// ahead of any error of a later read, once the next read is handed over
// or the stream ends: a stream that stalls delays the report, not the
// stop — no edge after a refused append is appended.
func ingest(src io.Reader, keyed bool, f *front) error {
	a := startAppender(f)
	buf := make([]byte, 0, 1<<16) // holds, between reads, the line still arriving
	var bufs [2][]stream.Edge[float64]
	turn := 0
	lines := 0
	for {
		if len(buf) == cap(buf) {
			if cap(buf) >= maxLine {
				return a.stop(fmt.Errorf("line %d: longer than 1 MiB", lines+1))
			}
			buf = append(make([]byte, 0, 2*cap(buf)), buf...)
		}
		tail := len(buf) // a line's beginning: no newline in it
		n, rerr := src.Read(buf[tail:cap(buf)])
		buf = buf[:tail+n]
		end := 0 // of the complete lines
		if i := bytes.LastIndexByte(buf[tail:], '\n'); i >= 0 {
			end = tail + i + 1
		}
		if rerr != nil {
			end = len(buf) // what the stream ends on is its last line
		}
		var perr error
		// Sized once for the read's lines (and a little more, so that the
		// next read's seldom needs another).
		edges := bufs[turn][:0]
		if nl := bytes.Count(buf[:end], []byte{'\n'}) + 1; cap(edges) < nl {
			edges = make([]stream.Edge[float64], 0, nl+nl/8)
		}
		for rest := string(buf[:end]); rest != "" && perr == nil; {
			line := rest
			if i := strings.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i], rest[i+1:]
			} else {
				rest = ""
			}
			lines++
			if e, ok, err := lineEdge(line, keyed); err != nil {
				perr = fmt.Errorf("line %d: %w", lines, err)
			} else if ok {
				edges = append(edges, e)
			}
		}
		// The edges before a bad line were accepted, as they always were.
		bufs[turn] = edges
		if len(edges) > 0 {
			a.reads <- read{edges, lines}
			turn = 1 - turn
			if a.failed.Load() {
				return a.stop(nil)
			}
		}
		if perr != nil {
			return a.stop(perr)
		}
		if end > 0 {
			buf = buf[:copy(buf, buf[end:])]
		}
		if rerr == io.EOF {
			return a.stop(nil)
		}
		if rerr != nil {
			return a.stop(fmt.Errorf("read: %w", rerr))
		}
	}
}

// read is one Read's edges on their way to the front, and the line they
// ended on — what an append error names.
type read struct {
	edges []stream.Edge[float64]
	line  int
}

// appender is ingest's second goroutine: it hands each read's edges to the
// front, and so to the store, while ingest parses the next read. reads is
// unbuffered: a send completes when the appender takes the read, which it
// does only once it is done with the one before — so the buffer ingest
// sent the time before is free again, and two buffers suffice. After the
// first refused append the appender takes reads without appending them,
// and says so on failed; err is read only once it has exited.
type appender struct {
	reads  chan read
	done   chan struct{}
	failed atomic.Bool
	err    error
}

func startAppender(f *front) *appender {
	a := &appender{reads: make(chan read), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		for r := range a.reads {
			if a.err == nil {
				if err := f.addAll(r.edges); err != nil {
					a.err = fmt.Errorf("line %d: %w", r.line, err)
					a.failed.Store(true)
				}
			}
			clear(r.edges) // their strings are the read's; let it go with the batch
		}
	}()
	return a
}

// stop waits for the appender to finish what it was sent and returns the
// error ingest ends on: an append's, which came from an earlier read or
// from the edges before err's line, ahead of err.
func (a *appender) stop(err error) error {
	close(a.reads)
	<-a.done
	if a.err != nil {
		return a.err
	}
	return err
}

// lineEdge parses one line of the stream; ok is false for a blank line
// and for a '#' comment. A line of ASCII bytes — every line adjserve is
// usually sent — is split without allocating; any other goes the way
// every line used to, through strings.Fields, which knows the rest of
// Unicode's white space.
func lineEdge(line string, keyed bool) (e stream.Edge[float64], ok bool, err error) {
	var fields [5]string // a key, two endpoints, two weights: what edgeOf reads
	n := 0
	for i := 0; i < len(line); {
		switch c := line[i]; {
		case c >= 0x80:
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				return e, false, nil
			}
			e, err = parseEdge(line, keyed)
			return e, err == nil, err
		case asciiSpace(c):
			i++
		default:
			start := i
			for i < len(line) && line[i] < 0x80 && !asciiSpace(line[i]) {
				i++
			}
			if n < len(fields) {
				fields[n] = line[start:i]
				n++
			}
		}
	}
	if n == 0 || fields[0][0] == '#' {
		return e, false, nil
	}
	e, err = edgeOf(fields[:n], strings.TrimSpace(line), keyed)
	return e, err == nil, err
}

// asciiSpace is unicode.IsSpace below 0x80 — what strings.Fields and
// strings.TrimSpace split and trim on in an ASCII string.
func asciiSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// parseEdge splits one stream line into an Edge. Weight presence is
// positional: a provided field sets the corresponding Has flag, so an
// explicit weight round-trips even when it equals the algebra's Zero,
// and an omitted one selects the algebra's One.
func parseEdge(line string, keyed bool) (stream.Edge[float64], error) {
	return edgeOf(strings.Fields(line), line, keyed)
}

// edgeOf is parseEdge past the split: f holds line's fields, or the
// first five of them.
func edgeOf(f []string, line string, keyed bool) (stream.Edge[float64], error) {
	var e stream.Edge[float64]
	if keyed {
		if len(f) < 1 {
			return e, fmt.Errorf("missing edge key")
		}
		e.Key, f = f[0], f[1:]
	}
	if len(f) < 2 {
		return e, fmt.Errorf("want 'src dst [out [in]]', got %q", line)
	}
	e.Src, e.Dst = f[0], f[1]
	var err error
	if len(f) > 2 {
		if e.Out, err = value.ParseFloat(f[2]); err != nil {
			return e, fmt.Errorf("out weight: %w", err)
		}
		e.HasOut = true
	}
	if len(f) > 3 {
		if e.In, err = value.ParseFloat(f[3]); err != nil {
			return e, fmt.Errorf("in weight: %w", err)
		}
		e.HasIn = true
	}
	return e, nil
}

// handler builds the default production front door over ing — run()
// uses serve.New directly with the flag-derived options; this helper
// keeps the cmd-level integration tests on the default configuration.
func handler(ing *core.Ingest) http.Handler {
	return serve.New(ing, serve.Options{})
}
