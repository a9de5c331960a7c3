package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"adjarray/internal/core"
	"adjarray/internal/dataset"
	"adjarray/internal/stream"
)

// rmatIngest preloads an in-memory store with an R-MAT graph of 2^scale
// vertices and 8·2^scale unweighted edges (scale 14: the 16k-vertex,
// 131k-edge graph the benchmark's query workloads serve). v000000 is its
// hub: the widest row and a source that reaches the whole component.
func rmatIngest(tb testing.TB, scale, shards int) *core.Ingest {
	tb.Helper()
	ing, err := core.NewIngest(core.IngestOptions{Semiring: "+.*", Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range dataset.RMAT(rand.New(rand.NewSource(1)), scale, 8).Edges() {
		if err := ing.Add(stream.Edge[float64]{Src: e.Src, Dst: e.Dst}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := ing.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	return ing
}

const rmatHub = "v000000"

// discard is a ResponseWriter that keeps nothing, so what a request
// allocates is the server's doing, not a recorder's.
type discard struct {
	header http.Header
	code   int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// serveDiscarding answers one prepared request through the full front
// door and fails on anything but a 200.
func serveDiscarding(tb testing.TB, s *Server, w *discard, r *http.Request) {
	w.code = http.StatusOK
	s.ServeHTTP(w, r)
	if w.code != http.StatusOK {
		tb.Fatalf("%s %s = %d", r.Method, r.URL, w.code)
	}
}

// perAnswer is what one answer to path allocates, objects and bytes,
// once a warm-up has filled the graph cache and the buffer pool. The
// object count is testing.AllocsPerRun's: an average over runs rounded
// down, so a stray allocation by the runtime does not show.
func perAnswer(t *testing.T, s *Server, path string) (objects, bytes float64) {
	t.Helper()
	w := &discard{header: http.Header{}}
	r := httptest.NewRequest("GET", path, nil)
	const runs = 10
	objects = testing.AllocsPerRun(runs, func() { serveDiscarding(t, s, w, r) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serveDiscarding(t, s, w, r)
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// What an answer allocates repeats exactly, so it is asserted here and
// not drawn from a benchmark: a row answer costs a few dozen objects
// whatever the graph's size (it was a Select over every column key and a
// matrix extraction), and a whole-graph answer costs its kernel's
// vectors, not a map entry and a boxed float per vertex (28k–43k objects
// per answer on this graph).
func TestAnswerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	small, large := New(rmatIngest(t, 10, 1), Options{}), New(rmatIngest(t, 14, 1), Options{})
	rowSmall, _ := perAnswer(t, small, "/row?src="+rmatHub)
	rowLarge, _ := perAnswer(t, large, "/row?src="+rmatHub)
	t.Logf("/row: %v objects at 1k column keys, %v at 16k", rowSmall, rowLarge)
	if rowLarge > 32 || rowSmall != rowLarge {
		t.Errorf("/row allocates %v objects over 16k column keys and %v over 1k; want the same number, at most 32", rowLarge, rowSmall)
	}
	for _, path := range []string{"/bfs?src=" + rmatHub, "/sssp?src=" + rmatHub, "/pagerank?iters=20"} {
		objects, bytes := perAnswer(t, large, path)
		t.Logf("%s: %v objects, %.0f bytes", path, objects, bytes)
		if objects > 128 || bytes > 1.5*(1<<20) {
			t.Errorf("%s allocates %v objects and %.0f bytes per answer; want at most 128 objects and 1.5 MB", path, objects, bytes)
		}
	}
}

// A point read pins the shard that owns its source and nothing else:
// after an acknowledged append the source's /at and /row see it, while
// every sibling still holds the backlog the append left it — so none was
// pinned, and therefore nothing was gathered, a gather needing every
// shard's snapshot — and the answer's epoch vector is the owner's pinned
// epoch beside the siblings' current ones.
func TestPointReadPinsOnlyTheOwner(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ing := newTestIngest(t, core.IngestOptions{Shards: shards})
			store := ing.Store()
			// One source per shard, so one batch leaves every shard a backlog.
			sources := make([]string, shards)
			for i, found := 0, 0; found < shards; i++ {
				src := fmt.Sprintf("s%03d", i)
				if o := store.ShardFor(src); sources[o] == "" {
					sources[o] = src
					found++
				}
			}
			var seed, batch []stream.Edge[float64]
			for _, src := range sources {
				seed = append(seed, stream.Edge[float64]{Src: src, Dst: "old"})
				batch = append(batch, stream.Edge[float64]{Src: src, Dst: "new"})
			}
			if err := ing.AppendBatch(seed); err != nil {
				t.Fatal(err)
			}
			if _, err := ing.Snapshot(); err != nil { // folds every shard
				t.Fatal(err)
			}
			s := New(ing, Options{})
			for owner, src := range sources {
				if err := ing.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				before := store.Stats()
				code, at := get(t, s, "/at?src="+src+"&dst=new")
				if code != http.StatusOK || at["stored"] != true {
					t.Fatalf("/at after the acknowledged append: code %d body %v", code, at)
				}
				code, row := get(t, s, "/row?src="+src)
				if code != http.StatusOK || row["row"].(map[string]any)["new"] == nil || row["row"].(map[string]any)["old"] == nil {
					t.Fatalf("/row after the acknowledged append: code %d body %v", code, row)
				}
				after := store.Stats()
				for i := range sources {
					switch pending := after.PerShard[i].PendingNNZ; {
					case i == owner && pending != 0:
						t.Errorf("owner shard %d still has %d pending entries: it was not pinned", i, pending)
					case i != owner && (pending == 0 || pending != before.PerShard[i].PendingNNZ):
						t.Errorf("sibling shard %d had %d pending entries and has %d: a point read for shard %d folded it",
							i, before.PerShard[i].PendingNNZ, pending, owner)
					}
				}
				for _, body := range []map[string]any{at, row} {
					epochs := body["epochs"].([]any)
					sum := 0.0
					for i, e := range epochs {
						sum += e.(float64)
						if int(e.(float64)) != after.Epochs[i] {
							t.Errorf("epochs[%d] = %v, want shard %d's epoch %d", i, e, i, after.Epochs[i])
						}
					}
					if len(epochs) != shards || body["epoch"] != sum {
						t.Errorf("epoch fields %v / %v do not describe %d shards", body["epoch"], epochs, shards)
					}
				}
				if _, err := ing.Snapshot(); err != nil { // fold the siblings for the next round
					t.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnswer is one answer per endpoint, socket excluded: the full
// front door (admission, metrics, snapshot pin, cached Graph, kernel,
// encode) into a writer that discards, over an R-MAT scale-12 store.
func BenchmarkAnswer(b *testing.B) {
	s := New(rmatIngest(b, 12, 1), Options{})
	batch := `{"ops":[{"op":"at","src":"v000000","dst":"v000001"},{"op":"at","src":"v000001","dst":"v000000"},` +
		`{"op":"at","src":"v000002","dst":"v000000"},{"op":"at","src":"v000000","dst":"v000004"},` +
		`{"op":"row","src":"v000000"},{"op":"row","src":"v000001"},{"op":"row","src":"v000002"},{"op":"bfs","src":"v000000"}]}`
	for _, arm := range []struct{ name, method, target, body string }{
		{"at", "GET", "/at?src=v000000&dst=v000001", ""},
		{"row", "GET", "/row?src=v000000", ""},
		{"bfs", "GET", "/bfs?src=v000000", ""},
		{"sssp", "GET", "/sssp?src=v000000", ""},
		{"pagerank", "GET", "/pagerank?iters=20", ""},
		{"batch", "POST", "/batch", batch},
		{"triples", "GET", "/triples?limit=10000", ""},
	} {
		b.Run(arm.name, func(b *testing.B) {
			w := &discard{header: http.Header{}}
			body := strings.NewReader(arm.body)
			r := httptest.NewRequest(arm.method, arm.target, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(arm.body)
				serveDiscarding(b, s, w, r)
			}
		})
	}
}

// newEpochBatch is one small ingest as the benchmark's mixed workload
// posts it: 32 edges between vertices the preload already holds, the last
// one into a vertex nothing has seen (so the owning shard's fold grows
// its universe), and the read-your-write probe for that edge.
func newEpochBatch(r *rand.Rand, n int) (body, probe string) {
	var b strings.Builder
	b.WriteString(`{"edges":[`)
	var src, dst string
	for i := 0; i < 32; i++ {
		src, dst = fmt.Sprintf("v%06d", r.Intn(1<<14)), fmt.Sprintf("v%06d", r.Intn(1<<14))
		if i == 31 {
			dst = fmt.Sprintf("w%07d", n)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%q,"dst":%q}`, src, dst)
	}
	b.WriteString(`]}`)
	return b.String(), "/at?src=" + src + "&dst=" + dst
}

// BenchmarkNewEpoch is what a new epoch vector costs on a 2-shard store
// of the R-MAT scale-14 graph: one acknowledged 32-edge ingest that
// introduces a vertex, its read-your-write /at (the owning shard folds,
// its universe grown), then /bfs and /pagerank at the new vector (the
// graph cache misses and rebuilds from the pinned shards) — the full
// front door into a writer that discards.
func BenchmarkNewEpoch(b *testing.B) {
	s := New(rmatIngest(b, 14, 2), Options{})
	r := rand.New(rand.NewSource(2))
	w := &discard{header: http.Header{}}
	bfs := httptest.NewRequest("GET", "/bfs?src="+rmatHub, nil)
	rank := httptest.NewRequest("GET", "/pagerank?iters=20", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, probe := newEpochBatch(r, i)
		serveDiscarding(b, s, w, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
		serveDiscarding(b, s, w, httptest.NewRequest("GET", probe, nil))
		serveDiscarding(b, s, w, bfs)
		serveDiscarding(b, s, w, rank)
	}
}
