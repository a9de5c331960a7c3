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

// A point read pins the shard that owns its source and nothing else, and
// folds nothing: after an acknowledged append the source's /at and /row
// see the new edge while NO shard's fold count moves and every shard —
// the owner too — still holds the unfolded edges the append left it (so
// nothing was gathered either, a gather needing every shard's snapshot);
// the answer's epoch vector is the owner's pinned epoch beside the
// siblings' current ones. Only once the owner's unfolded suffix has
// outgrown the threshold does a point read fold — the owner, and only the
// owner.
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
			checkEpochs := func(after stream.StoreStats, bodies ...map[string]any) {
				t.Helper()
				for _, body := range bodies {
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
			}
			for owner, src := range sources {
				if err := ing.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				before := store.Stats()
				code, at := get(t, s, "/at?src="+src+"&dst=new")
				if code != http.StatusOK || at["stored"] != true || at["value"] != float64(owner+1) {
					t.Fatalf("/at after the acknowledged append: code %d body %v", code, at)
				}
				code, row := get(t, s, "/row?src="+src)
				if cells := row["row"].(map[string]any); code != http.StatusOK || cells["new"] != float64(owner+1) || cells["old"] != 1.0 {
					t.Fatalf("/row after the acknowledged append: code %d body %v", code, row)
				}
				after := store.Stats()
				for i := range sources {
					if b, a := before.PerShard[i], after.PerShard[i]; a.Folds != b.Folds || a.PendingNNZ != b.PendingNNZ || a.PendingNNZ == 0 {
						t.Errorf("shard %d had %d unfolded edges after %d folds and has %d after %d: a point read for shard %d folded it",
							i, b.PendingNNZ, b.Folds, a.PendingNNZ, a.Folds, owner)
					}
				}
				checkEpochs(after, at, row)
			}
			if got := scrapeMetric(t, s, `adjserve_point_reads_total{path="suffix"}`); got != float64(2*shards) {
				t.Errorf("%v point reads counted over a suffix; want %d", got, 2*shards)
			}

			// One edge more than the threshold allows, all on shard 0's source.
			big := make([]stream.Edge[float64], 1<<12)
			for i := range big {
				big[i] = stream.Edge[float64]{Src: sources[0], Dst: fmt.Sprintf("d%04d", i)}
			}
			if err := ing.AppendBatch(big); err != nil {
				t.Fatal(err)
			}
			before := store.Stats()
			code, at := get(t, s, "/at?src="+sources[0]+"&dst=d4095")
			if code != http.StatusOK || at["stored"] != true {
				t.Fatalf("/at past the threshold: code %d body %v", code, at)
			}
			after := store.Stats()
			for i := range sources {
				b, a := before.PerShard[i], after.PerShard[i]
				switch {
				case i == 0 && (a.Folds != b.Folds+1 || a.PendingNNZ != 0):
					t.Errorf("the owner held %d unfolded edges and holds %d after %d more folds; want one fold of all of them", b.PendingNNZ, a.PendingNNZ, a.Folds-b.Folds)
				case i != 0 && (a.Folds != b.Folds || a.PendingNNZ != b.PendingNNZ):
					t.Errorf("sibling shard %d folded for a point read of shard 0", i)
				}
			}
			checkEpochs(after, at)
			if got := scrapeMetric(t, s, `adjserve_point_reads_total{path="folded"}`); got != 1 {
				t.Errorf("%v point reads counted as folding first; want 1", got)
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

// BenchmarkReadYourWrite is a point read that meets unfolded edges, on a
// 2-shard store of the R-MAT scale-14 graph: each iteration posts one
// 32-edge ingest (untimed) and then reads the source it wrote last — the
// /at of the new cell, or the whole /row — so ns/op and B/op are what one
// read over the log's unfolded suffix costs; the suffix grows to the fold
// threshold and starts over, as it does on a server asked nothing else.
func BenchmarkReadYourWrite(b *testing.B) {
	for _, arm := range []string{"at", "row"} {
		b.Run(arm, func(b *testing.B) {
			s := New(rmatIngest(b, 14, 2), Options{})
			r := rand.New(rand.NewSource(2))
			w := &discard{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				body, probe := newEpochBatch(r, i)
				if arm == "row" {
					probe = "/row?" + probe[len("/at?"):strings.Index(probe, "&")]
				}
				serveDiscarding(b, s, w, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
				read := httptest.NewRequest("GET", probe, nil)
				b.StartTimer()
				serveDiscarding(b, s, w, read)
			}
		})
	}
}
