package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"adjarray/internal/core"
	"adjarray/internal/dataset"
	"adjarray/internal/serve"
	"adjarray/internal/stream"
)

func TestParseEdge(t *testing.T) {
	cases := []struct {
		line  string
		keyed bool
		want  stream.Edge[float64]
		bad   bool
	}{
		{line: "a b", want: stream.Edge[float64]{Src: "a", Dst: "b"}},
		{line: "a b 2", want: stream.Edge[float64]{Src: "a", Dst: "b", Out: 2, HasOut: true}},
		{line: "a b 2 3", want: stream.Edge[float64]{Src: "a", Dst: "b", Out: 2, HasOut: true, In: 3, HasIn: true}},
		// An explicit zero weight is presence, not absence — the old
		// sentinel could not represent this line.
		{line: "a b 0", want: stream.Edge[float64]{Src: "a", Dst: "b", Out: 0, HasOut: true}},
		{line: "k1 a b 5", keyed: true, want: stream.Edge[float64]{Key: "k1", Src: "a", Dst: "b", Out: 5, HasOut: true}},
		{line: "a", bad: true},
		{line: "a b x", bad: true},
	}
	for _, c := range cases {
		got, err := parseEdge(c.line, c.keyed)
		if c.bad {
			if err == nil {
				t.Errorf("parseEdge(%q) accepted", c.line)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseEdge(%q): %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseEdge(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func newTestIngest(t *testing.T) *core.Ingest {
	t.Helper()
	ing, err := core.NewIngest(core.IngestOptions{Semiring: "+.*", BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var body map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return rec.Code, body
}

func TestHandlerEndpoints(t *testing.T) {
	ing := newTestIngest(t)
	for _, e := range []stream.Edge[float64]{
		{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}, {Src: "a", Dst: "c"},
	} {
		if err := ing.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	h := handler(ing)

	if code, body := get(t, h, "/stats"); code != 200 || body["Edges"].(float64) != 3 {
		t.Fatalf("/stats = %d %v", code, body)
	}
	if code, body := get(t, h, "/at?src=a&dst=b"); code != 200 || body["value"].(float64) != 1 || body["stored"] != true {
		t.Fatalf("/at = %d %v", code, body)
	}
	if code, body := get(t, h, "/bfs?src=a"); code != 200 {
		t.Fatalf("/bfs = %d", code)
	} else {
		levels := body["result"].(map[string]any)
		if levels["a"].(float64) != 0 || levels["b"].(float64) != 1 || levels["c"].(float64) != 1 {
			t.Fatalf("/bfs levels = %v", levels)
		}
	}
	if code, body := get(t, h, "/sssp?src=a"); code != 200 {
		t.Fatalf("/sssp = %d", code)
	} else if dist := body["result"].(map[string]any); dist["b"].(float64) != 1 {
		t.Fatalf("/sssp dist = %v", dist)
	}
	if code, body := get(t, h, "/widest?src=a"); code != 200 || body["result"] == nil {
		t.Fatalf("/widest = %d %v", code, body)
	}
	if code, body := get(t, h, "/pagerank?iters=50"); code != 200 {
		t.Fatalf("/pagerank = %d", code)
	} else if pr := body["result"].(map[string]any); pr["iterations"].(float64) < 1 {
		t.Fatalf("/pagerank = %v", pr)
	}
	// The a→b, b→c, a→c pattern is asymmetric: triangle counting refuses.
	if code, _ := get(t, h, "/triangles"); code != http.StatusUnprocessableEntity {
		t.Fatalf("/triangles on asymmetric pattern = %d, want 422", code)
	}
	// Unknown sources are the client's error, missing params a bad request.
	if code, _ := get(t, h, "/bfs?src=zz"); code != http.StatusNotFound {
		t.Fatalf("/bfs unknown source = %d, want 404", code)
	}
	if code, _ := get(t, h, "/bfs"); code != http.StatusBadRequest {
		t.Fatalf("/bfs without src = %d, want 400", code)
	}
	// /triples is capped.
	if code, body := get(t, h, "/triples?limit=2"); code != 200 {
		t.Fatalf("/triples = %d", code)
	} else {
		if n := len(body["triples"].([]any)); n != 2 {
			t.Fatalf("/triples limit=2 returned %d rows", n)
		}
		if body["truncated"] != true || body["total"].(float64) != 3 {
			t.Fatalf("/triples metadata = %v", body)
		}
	}
	if code, _ := get(t, h, "/triples?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("/triples limit=-1 = %d, want 400", code)
	}
}

// A durable serving process across a restart: the first run ingests and
// closes (final checkpoint), the second recovers, reports its position
// on /healthz, and keeps ingesting with the auto-key sequence intact.
func TestDurableRestartAndHealthz(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.Ingest {
		t.Helper()
		ing, err := core.NewIngest(core.IngestOptions{Semiring: "+.*", BatchSize: 4, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return ing
	}

	ing := open()
	for _, e := range []stream.Edge[float64]{
		{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}, {Src: "a", Dst: "c"},
	} {
		if err := ing.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	ing = open()
	defer ing.Close()
	d := ing.Store()
	if !d.Persistent() {
		t.Fatal("DataDir set but ingest is not durable")
	}
	if st := d.Durability()[0]; st.Epoch != 1 || st.DurableEpoch != 1 {
		t.Fatalf("recovered position = %+v, want epoch 1 durable 1", st)
	}
	if st := ing.Store().Stats(); st.Edges != 3 {
		t.Fatalf("recovered %d edges, want 3", st.Edges)
	}
	// Ingest continues on the recovered store: auto keys must extend the
	// checkpointed sequence, not collide with it.
	if err := ing.Add(stream.Edge[float64]{Src: "c", Dst: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}

	h := handler(ing)
	code, body := get(t, h, "/healthz")
	if code != 200 || body["ok"] != true || body["durable"] != true {
		t.Fatalf("/healthz = %d %v", code, body)
	}
	if body["epoch"].(float64) != 2 || body["durable_epoch"].(float64) != 2 || body["wal_lag"].(float64) != 0 {
		t.Fatalf("/healthz position = %v, want epoch 2, durable 2, lag 0", body)
	}
	if code, body := get(t, h, "/at?src=a&dst=b"); code != 200 || body["stored"] != true {
		t.Fatalf("recovered /at = %d %v", code, body)
	}
}

// In-memory ingests must report healthy-but-not-durable, not error.
func TestHealthzInMemory(t *testing.T) {
	ing := newTestIngest(t)
	code, body := get(t, handler(ing), "/healthz")
	if code != 200 || body["ok"] != true || body["durable"] != false {
		t.Fatalf("/healthz = %d %v", code, body)
	}
}

// Algorithm queries against live snapshots while ingest continues — the
// -race target: readers hit /bfs, /pagerank, /stats and /triples
// concurrently with mu-guarded Add/Flush on the shared accumulator.
func TestBFSDuringConcurrentIngest(t *testing.T) {
	ing := newTestIngest(t)
	// Seed a known reachable pair so /bfs?src=v00 always resolves.
	for _, e := range []stream.Edge[float64]{{Src: "v00", Dst: "v01"}, {Src: "v01", Dst: "v02"}} {
		if err := ing.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	h := handler(ing)

	var mu sync.Mutex
	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			paths := []string{"/bfs?src=v00", "/pagerank?iters=10", "/stats", "/triples?limit=5", "/sssp?src=v00"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[(i+w)%len(paths)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("GET %s = %d: %s", path, rec.Code, rec.Body.String()))
				}
			}
		}(w)
	}

	r := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		e := stream.Edge[float64]{
			Src: fmt.Sprintf("v%02d", r.Intn(24)),
			Dst: fmt.Sprintf("v%02d", r.Intn(24)),
		}
		mu.Lock()
		err := ing.Add(e)
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			mu.Lock()
			err := ing.Flush()
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
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
	code, body := get(t, h, "/bfs?src=v00")
	if code != 200 {
		t.Fatalf("final /bfs = %d", code)
	}
	levels := body["result"].(map[string]any)
	if levels["v00"].(float64) != 0 || levels["v01"] == nil || levels["v02"] == nil {
		t.Fatalf("final /bfs levels = %v", levels)
	}
	if st := ing.Store().Stats(); st.Edges != 402 {
		t.Fatalf("ingested %d edges, want 402", st.Edges)
	}
}

// add buffers one edge and flushes full batches — how edges reached the
// front while ingest read a line at a time.
func (f *front) add(e stream.Edge[float64]) error {
	f.mu.Lock()
	f.buf = append(f.buf, e)
	full := len(f.buf) >= f.size
	f.mu.Unlock()
	f.edges.Add(1)
	if full {
		return f.flush()
	}
	return nil
}

// referenceIngest is ingest as it was before it read a Read at a time: a
// Scanner token, a string and a field slice per line, one lock round-trip
// per edge. It also returns the number of lines it scanned.
func referenceIngest(src io.Reader, keyed bool, f *front) (int, error) {
	lines := 0
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		lines++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseEdge(line, keyed)
		if err != nil {
			return lines, fmt.Errorf("line %d: %w", lines, err)
		}
		if err := f.add(e); err != nil {
			return lines, fmt.Errorf("line %d: %w", lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		return lines, fmt.Errorf("read: %w", err)
	}
	return lines, nil
}

// readings are the ways the differential cuts one stream into Reads.
var readings = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data with EOF", iotest.DataErrReader},
}

// checkIngestMatchesReference holds ingest to referenceIngest on one
// stream under every reading: the same edges in the same order, the same
// accepted count, the same first error at the same line. Nothing is
// flushed (the fronts' batches never fill), so the edges are read back
// from the buffers. The one licensed difference: the reference reports an
// over-long line as the Scanner's error, without a position.
func checkIngestMatchesReference(t *testing.T, data []byte, keyed bool) {
	t.Helper()
	ref := &front{size: 1 << 62}
	lines, refErr := referenceIngest(bytes.NewReader(data), keyed, ref)
	want := ""
	switch {
	case errors.Is(refErr, bufio.ErrTooLong):
		want = fmt.Sprintf("line %d: longer than 1 MiB", lines+1)
	case refErr != nil:
		want = refErr.Error()
	}
	for _, rd := range readings {
		f := &front{size: 1 << 62}
		got := ""
		if err := ingest(rd.wrap(bytes.NewReader(data)), keyed, f); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%s: error %q, reference %q", rd.name, got, want)
		}
		if f.edges.Load() != ref.edges.Load() || len(f.buf) != len(ref.buf) {
			t.Fatalf("%s: accepted %d edges (%d buffered), reference %d (%d)", rd.name, f.edges.Load(), len(f.buf), ref.edges.Load(), len(ref.buf))
		}
		for i, e := range f.buf {
			// NaN weights parse; compare them as the text they came from would.
			if fmt.Sprintf("%+v", e) != fmt.Sprintf("%+v", ref.buf[i]) {
				t.Fatalf("%s: edge %d is %+v, reference %+v", rd.name, i, e, ref.buf[i])
			}
		}
	}
}

// ingestSeeds are the streams the differential always runs.
func ingestSeeds() [][]byte {
	long := func(n int) string { return strings.Repeat("x", n) }
	return [][]byte{
		[]byte("a b\nb c 2\nc d 2 3\n"),
		[]byte("a b\r\nb c 2\r\n\r\nc d\r\n"),
		[]byte("a\tb\t2\n \t b  c \t\n"),
		[]byte("a\u00a0b\u2003 2\nc\u00a0 d\n\u2003\n\u00a0# a comment after a no-break space\n"), // strings.Fields' white space, not ASCII's
		[]byte("a b\nc d 2\n \n # not a comment to ASCII eyes\n"),
		[]byte("# header\n\n  # indented\na b\n#\n"),
		[]byte("a b\nb c"),
		[]byte("a b +Inf\nb c -Inf +Inf\nc d NaN\n"),
		[]byte("k1 a b\nk2 b c 5\nk3 c\n"),
		[]byte("a b\na\nb c\n"),
		[]byte("a b x\n"),
		[]byte("a b 1 y\n"),
		[]byte("a b 1 2 extra fields are ignored\n"),
		[]byte("a b\n" + long(1<<20) + " b\nc d\n"),     // a 1 MiB + 1 line: refused
		[]byte("a b\n" + long(1<<20-3) + " b\nc d\n"),   // 1 MiB with its terminator: the longest accepted
		[]byte("a b\nc " + long(1<<20)),                 // … and one the stream ends in
		[]byte(long(1<<16-3) + " b\nc d\n"),             // ends exactly on the first read's boundary
		[]byte(long(1<<16-2) + " b\nc d\n"),             // … and one byte past it
		[]byte("caf\xc3\xa9 b\n\xff\xfe b\na\x85b c\n"), // UTF-8, invalid UTF-8, a bare NEL byte
		[]byte("\r"),
		nil,
	}
}

func TestIngestMatchesReference(t *testing.T) {
	for i, seed := range ingestSeeds() {
		for _, keyed := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/keyed=%v", i, keyed), func(t *testing.T) {
				checkIngestMatchesReference(t, seed, keyed)
			})
		}
	}
}

func FuzzIngestLines(f *testing.F) {
	for _, seed := range ingestSeeds() {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, keyed bool) {
		checkIngestMatchesReference(t, data, keyed)
	})
}

// Errors keep their line: a parse error its own, an over-long line the one
// it would have been, an append the store refuses the last line of the
// read whose edges were being handed over — and what was accepted before
// the error stays accepted.
func TestIngestErrorsNameTheirLine(t *testing.T) {
	cases := []struct {
		name, in string
		keyed    bool
		want     string
		edges    int64
	}{
		{"parse", "a b\n# c\nb\n", false, `line 3: want 'src dst [out [in]]', got "b"`, 1},
		{"weight", "a b\nb c 1 z\n", false, "line 2: in weight: ", 1},
		{"too long", "a b\n\n" + strings.Repeat("x", 1<<20) + "\n", false, "line 3: longer than 1 MiB", 1},
		{"append", "k2 a b\nk1 b c\nk3 c d\n", true, "line 3: stream: ", 2}, // the read ends at line 3; its first batch was refused
	}
	for _, c := range cases {
		f := newFront(newTestIngest(t), 2)
		err := ingest(strings.NewReader(c.in), c.keyed, f)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want prefix %q", c.name, err, c.want)
		}
		if got := f.edges.Load(); got != c.edges {
			t.Errorf("%s: %d edges accepted, want %d", c.name, got, c.edges)
		}
	}
}

// chunks is a reader whose Reads return one chunk each.
type chunks []string

func (c *chunks) Read(p []byte) (int, error) {
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	if (*c)[0] = (*c)[0][n:]; (*c)[0] == "" {
		*c = (*c)[1:]
	}
	return n, nil
}

// The store appends one read while the next is parsed, and the errors keep
// the order of the stream: a refused append is reported ahead of anything
// wrong with a later read, and nothing after it reaches the store.
func TestIngestReportsAnAppendAheadOfALaterRead(t *testing.T) {
	cases := []struct {
		name   string
		reads  chunks
		want   string
		edges  int64 // accepted by the front
		stored int   // appended to the store
	}{
		{"append, then a parse error", chunks{"k2 a b\nk1 a c\n", "k3 c d\nbad\n"}, "line 2: stream: ", 2, 0},
		{"append, then good lines", chunks{"k2 a b\nk1 a c\n", "k3 c d\nk4 d e\n", "k5 e f\n"}, "line 2: stream: ", 2, 0},
		{"append and a parse error in one read", chunks{"k2 a b\nk1 a c\nbad\n"}, "line 3: stream: ", 2, 0},
		{"a parse error after good reads", chunks{"k1 a b\nk2 b c\n", "k3 c d\nbad\n"}, `line 4: want 'src dst [out [in]]', got "bad"`, 3, 2},
	}
	for _, c := range cases {
		ing := newTestIngest(t)
		f := newFront(ing, 2)
		err := ingest(&c.reads, true, f)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want prefix %q", c.name, err, c.want)
		}
		if got := f.edges.Load(); got != c.edges {
			t.Errorf("%s: %d edges accepted, want %d", c.name, got, c.edges)
		}
		if got := ing.Store().Stats().Edges; got != c.stored {
			t.Errorf("%s: %d edges stored, want %d", c.name, got, c.stored)
		}
	}
}

// A preload costs allocations per READ and per batch, not per line: the
// 262k strings and field slices of a 131k-line stream are gone.
func TestIngestAllocatesPerReadNotPerLine(t *testing.T) {
	var b bytes.Buffer
	const lines = 20_000
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "v%d v%d\n", i%97, i%89)
	}
	f := &front{size: 1 << 62, buf: make([]stream.Edge[float64], 0, lines)}
	allocs := testing.AllocsPerRun(5, func() {
		f.buf = f.buf[:0]
		if err := ingest(bytes.NewReader(b.Bytes()), false, f); err != nil {
			t.Fatal(err)
		}
	})
	if reads := float64(b.Len()>>16 + 1); allocs > 3*reads+20 {
		t.Errorf("%d lines in %.0f reads cost %.0f allocations", lines, reads, allocs)
	}
}

// A preload's one fold spells an unweighted side's column of One with one
// allocation of its size (1 MB here), not the ~5× of growing it an element
// at a time: file → ingest → flush → Pin of the 131,072-edge preload
// allocates 12.9 MB, run after run, where it allocated 16.9.
func TestPreloadAllocations(t *testing.T) {
	data := preloadLines()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	preload(t, data)
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; got > 13 {
		t.Errorf("the preload allocated %.2f MB; want at most 13", got)
	}
}

// preload is adjserve from opening -in to its "ingested …" line, in
// process: the lines → ingest → flush → Pin, one shard, batches of 512.
func preload(tb testing.TB, data []byte) (*core.Ingest, *front) {
	ing, f, _ := preloadShards(tb, data, 1)
	return ing, f
}

// preloadShards is preload on a store of the given shard count; pin is
// the time the closing Pin took.
func preloadShards(tb testing.TB, data []byte, shards int) (ing *core.Ingest, f *front, pin time.Duration) {
	tb.Helper()
	ing, err := core.NewIngest(core.IngestOptions{Semiring: "+.*", BatchSize: 512, Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	f = newFront(ing, 512)
	if err := ingest(bytes.NewReader(data), false, f); err != nil {
		tb.Fatal(err)
	}
	if err := f.flush(); err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if _, err := ing.Store().Pin(); err != nil {
		tb.Fatal(err)
	}
	return ing, f, time.Since(start)
}

// preloadLines is the stream bench's query_static child is started on:
// R-MAT scale 14, edge factor 8, one "src dst" line per edge.
func preloadLines() []byte {
	var b bytes.Buffer
	for _, e := range dataset.RMAT(rand.New(rand.NewSource(1)), 14, 8).Edges() {
		b.WriteString(e.Src)
		b.WriteByte(' ')
		b.WriteString(e.Dst)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// BenchmarkPreload is adjserve's time to its first answer, in process:
// preload over the lines of a 131,072-edge file — everything between
// opening -in and the "ingested …" line — on one shard and on two (what
// bench's mixed_rw child runs). pin_ms is the closing Pin, whose shards
// fold at once; fold_ms the store's own count of the time in folds,
// summed over the shards (and folds how many there were), so on two
// cores pin_ms comes out below fold_ms. parse_ms is a pass of the same
// lines into a front that never appends (so it also writes every edge of
// the file to memory: an upper bound), append_ms what is left of the op
// past the parse and the pin: the appends run beside the parse, so it is
// what of them the parse did not hide.
func BenchmarkPreload(b *testing.B) {
	data := preloadLines()
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var total, parse, fold, pin time.Duration
			folds := 0
			dry := &front{size: 1 << 62}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				ing, f, p := preloadShards(b, data, shards)
				total += time.Since(start)
				b.StopTimer()
				st := ing.Store().Stats()
				if st.Pending != 0 || int64(st.Edges) != f.edges.Load() {
					b.Fatalf("%d edges accepted, %d stored, %d pending after the Pin", f.edges.Load(), st.Edges, st.Pending)
				}
				pin += p
				fold += time.Duration(st.FoldNanos)
				folds += st.Folds
				dry.buf = dry.buf[:0]
				start = time.Now()
				if err := ingest(bytes.NewReader(data), false, dry); err != nil {
					b.Fatal(err)
				}
				parse += time.Since(start)
				b.StartTimer()
			}
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(ms(parse), "parse_ms")
			b.ReportMetric(ms(total-parse-pin), "append_ms")
			b.ReportMetric(ms(pin), "pin_ms")
			b.ReportMetric(ms(fold), "fold_ms")
			b.ReportMetric(float64(folds)/float64(b.N), "folds")
		})
	}
}

// The debug listener answers pprof and carries the runtime's gauges into
// the registry the front door exposes.
func TestDebugListener(t *testing.T) {
	door := serve.New(newTestIngest(t), serve.Options{})
	dbg := httptest.NewServer(debugMux(door.Metrics()))
	defer dbg.Close()
	fetch := func(h http.Handler, url string) (int, string) {
		t.Helper()
		if h != nil {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			return rec.Code, rec.Body.String()
		}
		resp, err := http.Get(dbg.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := fetch(nil, "/debug/pprof/heap?debug=1"); code != 200 || !strings.Contains(body, "heap profile:") {
		t.Errorf("/debug/pprof/heap = %d %.80q", code, body)
	}
	if code, _ := fetch(nil, "/debug/trace/stop"); code != http.StatusConflict {
		t.Errorf("/debug/trace/stop with no trace running = %d, want 409", code)
	}
	if code, _ := fetch(nil, "/debug/trace/start"); code != 200 {
		t.Errorf("/debug/trace/start = %d", code)
	}
	if code, body := fetch(nil, "/debug/trace/stop"); code != 200 || len(body) == 0 {
		t.Errorf("/debug/trace/stop = %d with %d bytes", code, len(body))
	}
	for _, where := range []http.Handler{door, nil} { // the front door's /metrics, and the listener's own
		code, body := fetch(where, "/metrics")
		if code != 200 {
			t.Fatalf("/metrics = %d", code)
		}
		for _, family := range []string{
			"adjserve_runtime_gc_pause_cpu_seconds_total", "adjserve_runtime_heap_goal_bytes", "adjserve_runtime_heap_live_bytes",
			"adjserve_runtime_goroutines", "adjserve_runtime_sched_latency_p99_seconds",
		} {
			if !strings.Contains(body, "\n"+family+" ") {
				t.Errorf("/metrics has no sample of %s", family)
			}
		}
	}
}
