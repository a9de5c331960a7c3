package serve

import (
	"bytes"
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
// and allocates its answer — and neither does the algorithm query that
// follows: it pins every shard in the point pin's form and builds its
// Graph from each shard's main continued by its unfolded suffix, one
// pattern copy of the graph straight into the kernel's vertex space, then
// the kernel's vectors: every kernel pushes along that pattern, and no
// transpose is built. No shard folds below the threshold, so
// Stats().Folds does not move. The bounds are the largest of 40
// measurements (/at 2.4 KB, /bfs 1.42 MB, /pagerank 1.48 MB) plus 12%.
// While each answer was rendered whole into a pooled buffer, /bfs and
// /pagerank read up to 1.88 and 3.58 MB; while the Graph built a pattern
// transpose, 2.43 and 4.14 MB. When the query
// folded both shards first (each one copy of that shard's main, read from
// the old one through the universe's position maps) and copied the graph
// with its values into the vertex space, the same three read 2.0 KB, 5.15
// and 6.85 MB; while the owner's fold sat in the /at, 1.06, 4.47 and 5.80
// MB; with 8-byte indices and a valued transpose 1.41, 7.10 and 7.52 MB.
// (Embedding main before
// the merge, gathering the shards with ⊕ into a store-wide array and
// embedding that again into the vertex space cost /at 2.4–2.5 MB, /bfs
// 10.8–12.1 MB and /pagerank 11.4–13.8 MB.) At an unchanged vector a query
// allocates what TestAnswerAllocations bounds. /triples?limit=10 reads
// the same cached Graph, its values laid on: 2.00 MB at a new vector
// (3.99 MB while it folded both shards and gathered the store-wide
// array), after which the /bfs at that vector builds nothing, and 17
// objects and 1,072 B at an unchanged one (1.9 MB while it gathered).
func TestNewEpochAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const KB, MB = 1 << 10, 1 << 20
	ing := rmatIngest(t, 14, 2)
	s := New(ing, Options{})
	r := rand.New(rand.NewSource(2))
	w := &discard{header: http.Header{}}
	for i, query := range []struct {
		path  string
		bound float64
	}{
		{"/bfs?src=" + rmatHub, 1.6 * MB}, {"/pagerank?iters=20", 1.65 * MB},
		{"/bfs?src=" + rmatHub, 1.6 * MB}, {"/pagerank?iters=20", 1.65 * MB},
		{"/triples?limit=10", 2.25 * MB},
	} {
		body, probe := newEpochBatch(r, i)
		serveDiscarding(t, s, w, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
		folds := ing.Store().Stats().Folds
		at := allocatedBy(t, s, httptest.NewRequest("GET", probe, nil))
		first := allocatedBy(t, s, httptest.NewRequest("GET", query.path, nil))
		t.Logf("new vector %d: /at %.1f KB, %s %.2f MB", i, at/KB, query.path, first/MB)
		if at > 16*KB {
			t.Errorf("the read-your-write /at allocated %.1f KB; want at most 16 KB — it folds nothing", at/KB)
		}
		if first > query.bound {
			t.Errorf("%s at a new vector allocated %.2f MB; want at most %.2f MB", query.path, first/MB, query.bound/MB)
		}
		if st := ing.Store().Stats(); st.Folds != folds || st.Pending == 0 {
			t.Errorf("%s at a new vector below the fold threshold: folds %d → %d, %d edges pending; want no fold", query.path, folds, st.Folds, st.Pending)
		}
	}
	bfs := allocatedBy(t, s, httptest.NewRequest("GET", "/bfs?src="+rmatHub, nil))
	objs, size := perAnswer(t, s, "/triples?limit=10")
	t.Logf("then /bfs %.2f MB; /triples?limit=10 at an unchanged vector %v objects, %.0f B", bfs/MB, objs, size)
	if bfs > 0.73*MB {
		t.Errorf("/bfs after /triples at one vector allocated %.2f MB; want at most 0.73 MB — the Graph is shared", bfs/MB)
	}
	if objs > 32 || size > 4*KB {
		t.Errorf("/triples?limit=10 at an unchanged vector allocates %v objects and %.0f B per answer; want at most 32 objects and 4 KB", objs, size)
	}
	if objects, bytes := perAnswer(t, s, "/pagerank?iters=20"); objects > 128 || bytes > 0.73*MB {
		t.Errorf("/pagerank at an unchanged vector allocates %v objects and %.2f MB per answer; want at most 128 objects and 0.73 MB", objects, bytes/MB)
	}
}

// No read folds or gathers. Every read route and /batch work from the
// shards' point pins — the Graph, which /triples reads too, is built from
// each shard's main and unfolded suffix, a point op reads its owner's —
// so after each of them no shard has folded and the appended edges are
// still pending, on any shard count.
func TestNoReadFoldsOrGathers(t *testing.T) {
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
		before := ing.Store().Stats()
		if before.Pending == 0 {
			t.Fatalf("%d shards: nothing pending before the reads", shards)
		}
		foldsNothing := func(route string) {
			t.Helper()
			if st := ing.Store().Stats(); st.Folds != before.Folds || st.Pending != before.Pending {
				t.Errorf("%d shards: %s folded: folds %d → %d, pending %d → %d", shards, route, before.Folds, st.Folds, before.Pending, st.Pending)
			}
		}
		for _, path := range []string{"/bfs?src=v00", "/sssp?src=v00", "/widest?src=v00", "/pagerank?iters=5", "/triangles", "/at?src=v00&dst=v01", "/row?src=v00", "/triples"} {
			code, out := get(t, s, path)
			if code != http.StatusOK {
				t.Fatalf("%d shards: GET %s = %d", shards, path, code)
			}
			if path == "/triples" && out["total"] != float64(len(edges)+2) {
				t.Errorf("%d shards: /triples total %v; want %d", shards, out["total"], len(edges)+2)
			}
			foldsNothing(path)
		}
		code, out := postBatch(t, s, `{"ops":[{"op":"at","src":"v00","dst":"v06"},{"op":"row","src":"v03"},{"op":"bfs","src":"v00"},{"op":"triangles"}]}`)
		if code != http.StatusOK {
			t.Fatalf("%d shards: /batch = %d", shards, code)
		}
		foldsNothing("/batch")
		results := out["results"].([]any)
		if at := results[0].(map[string]any); at["stored"] != true {
			t.Errorf("%d shards: the batch's at op read %v from its owner's pinned array", shards, at)
		}
		if row := results[1].(map[string]any)["row"].(map[string]any); len(row) != 4 {
			t.Errorf("%d shards: the batch's row op read %v from its owner's pinned array", shards, row)
		}
	}
}

// A store whose shards are not row-disjoint — a 2-shard directory
// reopened after shard-001 was replaced by a copy of shard-000 — is
// reported, not summed: whatever needs every shard's rows together
// (/bfs and /triples build the Graph) answers 500 naming the row,
// and the point reads, which go to the owning shard alone, keep answering.
// Inside a /batch the same holds op by op: the bfs op reports the 500 in
// its place, and the at and row ops beside it answer.
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
	code, out := postBatch(t, s, fmt.Sprintf(`{"ops":[{"op":"at","src":%q,"dst":"y"},{"op":"bfs","src":%[1]q},{"op":"row","src":%[1]q}]}`, src))
	if code != http.StatusOK {
		t.Fatalf("/batch = %d", code)
	}
	results := out["results"].([]any)
	if bfs := results[1].(map[string]any); bfs["status"] != float64(http.StatusInternalServerError) ||
		!strings.Contains(fmt.Sprint(bfs["error"]), fmt.Sprintf("%q", src)) {
		t.Errorf("the batch's bfs op = %v; want status 500 naming row %q", bfs, src)
	}
	if at := results[0].(map[string]any); at["stored"] != true {
		t.Errorf("the batch's at op = %v", at)
	}
	if row := results[2].(map[string]any); row["row"] == nil || len(row["row"].(map[string]any)) != 2 {
		t.Errorf("the batch's row op = %v", row)
	}
}

// /triples over a suffix no fold has reached — FuzzQuery's stores are
// folded whole — writes the reference's bytes: the live answer before the
// reference folds the store, and again after it. The suffix brings fresh
// vertices, grows a stored cell by ⊕ and, under +.*, cancels one to Zero.
func TestTriplesOverAnUnfoldedSuffixMatchTheReference(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		for semiring, vals := range goldenValues {
			for _, limit := range []string{"1", "7", "", "1000"} {
				ing := goldenStore(t, semiring, shards, false)
				one := oneOf(t, semiring)
				edge := func(src, dst string, out float64) stream.Edge[float64] {
					return stream.Edge[float64]{Src: src, Dst: dst, Out: out, In: one, HasOut: true, HasIn: true}
				}
				suffix := []stream.Edge[float64]{edge("fresh", "a", vals[2]), edge("c", "new\x00fresh", vals[3]), edge("b", "c", vals[4])}
				if semiring == "+.*" {
					suffix = append(suffix, edge("a", "b", -vals[0])) // goldenStore's first cell, a→b, holds vals[0]
				}
				if err := ing.AppendBatch(suffix); err != nil {
					t.Fatal(err)
				}
				if st := ing.Store().Stats(); st.Pending != len(suffix) {
					t.Fatalf("%d edges pending; want the %d of the suffix", st.Pending, len(suffix))
				}
				rq := goldenGet("/triples")
				if limit != "" {
					rq = goldenGet("/triples", "limit", limit)
				}
				before := serveGolden(New(ing, Options{}), rq)
				want := serveGolden(newRefServer(ing, Options{}), rq)
				after := serveGolden(New(ing, Options{}), rq)
				for i, got := range []*httptest.ResponseRecorder{before, after} {
					if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Errorf("%s, %d shards, GET %s, answer %d of 2: %d %.300q; reference %d %.300q", semiring, shards, rq.target, i+1,
							got.Code, got.Body.String(), want.Code, want.Body.String())
					}
				}
				if semiring == "+.*" && strings.Contains(want.Body.String(), `"col":"b","row":"a"`) {
					t.Errorf("%d shards: a→b was not cancelled to Zero: %s", shards, want.Body.String())
				}
			}
		}
	}
}
