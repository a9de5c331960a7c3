package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"adjarray/internal/core"
	"adjarray/internal/stream"
)

// allocatedBy is the bytes one request allocates, through the full front
// door into a writer that discards.
func allocatedBy(t *testing.T, s *Server, r *http.Request) float64 {
	t.Helper()
	w := &discard{header: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serveDiscarding(t, s, w, r)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// What a new epoch vector costs on two shards of the R-MAT scale-14
// graph, as counts that repeat: after an acknowledged 32-edge append that
// introduces a vertex, the read-your-write /at folds nothing — it reads
// the owning shard's main beside the 16 or so edges the append left it,
// and allocates its answer — and the algorithm query that follows pays
// both shards' folds (each one copy of that shard's main, read from the
// old one through the universe's position maps), one copy of the graph
// straight into the kernel's vertex space, its pattern transpose and the
// kernel's vectors. The bounds are the largest of 40 measurements (/at
// 2.0 KB, /bfs 5.15 MB, /pagerank 6.85 MB — its spread is whether a
// collection emptied the kernel pools; the first fold of each shard has no
// merge scratch to reuse, later vectors read 4.54 and 5.75 MB) plus 10%.
// While the owner's fold sat in the /at the same three read 1.06, 4.47
// and 5.80 MB; with 8-byte indices and a valued transpose 1.41, 7.10 and
// 7.52 MB. (Embedding main before the merge, gathering the shards with ⊕
// into a store-wide array and embedding that again into the vertex space
// cost /at 2.4–2.5 MB, /bfs 10.8–12.1 MB and /pagerank 11.4–13.8 MB.) At
// an unchanged vector a query allocates what TestAnswerAllocations bounds.
func TestNewEpochAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const KB, MB = 1 << 10, 1 << 20
	s := New(rmatIngest(t, 14, 2), Options{})
	r := rand.New(rand.NewSource(2))
	w := &discard{header: http.Header{}}
	for i, query := range []struct {
		path  string
		bound float64
	}{
		{"/bfs?src=" + rmatHub, 5.7 * MB}, {"/pagerank?iters=20", 7.5 * MB},
		{"/bfs?src=" + rmatHub, 5.7 * MB}, {"/pagerank?iters=20", 7.5 * MB},
	} {
		body, probe := newEpochBatch(r, i)
		serveDiscarding(t, s, w, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
		at := allocatedBy(t, s, httptest.NewRequest("GET", probe, nil))
		first := allocatedBy(t, s, httptest.NewRequest("GET", query.path, nil))
		t.Logf("new vector %d: /at %.1f KB, %s %.2f MB", i, at/KB, query.path, first/MB)
		if at > 16*KB {
			t.Errorf("the read-your-write /at allocated %.1f KB; want at most 16 KB — it folds nothing", at/KB)
		}
		if first > query.bound {
			t.Errorf("%s at a new vector allocated %.2f MB; want at most %.1f MB", query.path, first/MB, query.bound/MB)
		}
	}
	if objects, bytes := perAnswer(t, s, "/pagerank?iters=20"); objects > 128 || bytes > 1.5*MB {
		t.Errorf("/pagerank at an unchanged vector allocates %v objects and %.2f MB per answer; want at most 128 objects and 1.5 MB", objects, bytes/MB)
	}
}

// Only /triples reads the store-wide array. Every algorithm endpoint and
// /batch work from the pinned shards — the Graph is built from their
// arrays, a point op reads its owner's — so after all of them the
// vector's gather has still not run, on any shard count.
func TestOnlyTriplesGathers(t *testing.T) {
	for _, shards := range []int{2, 3, 5} {
		ing := newTestIngest(t, core.IngestOptions{Shards: shards})
		var edges [][2]string
		for i := 0; i < 12; i++ { // a symmetric ring with chords, so /triangles answers too
			a, b, c := fmt.Sprintf("v%02d", i), fmt.Sprintf("v%02d", (i+1)%12), fmt.Sprintf("v%02d", (i+2)%12)
			edges = append(edges, [2]string{a, b}, [2]string{b, a}, [2]string{a, c}, [2]string{c, a})
		}
		seedEdges(t, ing, edges...)
		if err := ing.AppendBatch([]stream.Edge[float64]{{Src: "v00", Dst: "v06"}, {Src: "v06", Dst: "v00"}}); err != nil {
			t.Fatal(err) // a vector nothing has gathered at
		}
		s := New(ing, Options{})
		for _, path := range []string{"/bfs?src=v00", "/sssp?src=v00", "/widest?src=v00", "/pagerank?iters=5", "/triangles", "/at?src=v00&dst=v01", "/row?src=v00"} {
			if code, _ := get(t, s, path); code != http.StatusOK {
				t.Fatalf("%d shards: GET %s = %d", shards, path, code)
			}
		}
		code, out := postBatch(t, s, `{"ops":[{"op":"at","src":"v00","dst":"v06"},{"op":"row","src":"v03"},{"op":"bfs","src":"v00"},{"op":"triangles"}]}`)
		if code != http.StatusOK {
			t.Fatalf("%d shards: /batch = %d", shards, code)
		}
		results := out["results"].([]any)
		if at := results[0].(map[string]any); at["stored"] != true {
			t.Errorf("%d shards: the batch's at op read %v from its owner's pinned array", shards, at)
		}
		if row := results[1].(map[string]any)["row"].(map[string]any); len(row) != 4 {
			t.Errorf("%d shards: the batch's row op read %v from its owner's pinned array", shards, row)
		}
		pin, err := ing.Store().Pin()
		if err != nil {
			t.Fatal(err)
		}
		if pin.Adjacency != nil {
			t.Errorf("%d shards: an algorithm endpoint or /batch gathered the store-wide array", shards)
		}
		if code, out := get(t, s, "/triples"); code != http.StatusOK || out["total"] != float64(len(edges)+2) {
			t.Fatalf("%d shards: /triples = %d, %v", shards, code, out["total"])
		}
		if pin, err = ing.Store().Pin(); err != nil || pin.Adjacency == nil {
			t.Errorf("%d shards: /triples answered without the gather (%v)", shards, err)
		}
	}
}

// A store whose shards are not row-disjoint — a 2-shard directory
// reopened after shard-001 was replaced by a copy of shard-000 — is
// reported, not summed: whatever needs every shard's rows together
// (/bfs builds the Graph, /triples gathers) answers 500 naming the row,
// and the point reads, which go to the owning shard alone, keep answering.
func TestACopiedShardIsReportedNotSummed(t *testing.T) {
	dir := t.TempDir()
	ing := newTestIngest(t, core.IngestOptions{Shards: 2, DataDir: dir})
	var src string // a source shard 0 owns
	for i := 0; src == ""; i++ {
		if s := fmt.Sprintf("s%02d", i); ing.Store().ShardFor(s) == 0 {
			src = s
		}
	}
	seedEdges(t, ing, [2]string{src, "x"}, [2]string{src, "y"})
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	from, to := filepath.Join(dir, "shard-000"), filepath.Join(dir, "shard-001")
	if err := os.RemoveAll(to); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(to, os.DirFS(from)); err != nil {
		t.Fatal(err)
	}
	ing = newTestIngest(t, core.IngestOptions{Shards: 2, DataDir: dir})
	defer ing.Close()
	s := New(ing, Options{})
	for _, path := range []string{"/bfs?src=" + src, "/triples"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), fmt.Sprintf("%q", src)) ||
			!strings.Contains(rec.Body.String(), "part 0") || !strings.Contains(rec.Body.String(), "part 1") {
			t.Errorf("GET %s = %d %q; want 500 naming row %q and both shards", path, rec.Code, rec.Body.String(), src)
		}
	}
	if code, at := get(t, s, "/at?src="+src+"&dst=y"); code != http.StatusOK || at["stored"] != true {
		t.Errorf("/at = %d %v", code, at)
	}
	if code, row := get(t, s, "/row?src="+src); code != http.StatusOK || len(row["row"].(map[string]any)) != 2 {
		t.Errorf("/row = %d %v", code, row)
	}
}
