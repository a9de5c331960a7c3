package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"adjarray/internal/algo"
	"adjarray/internal/core"
	"adjarray/internal/stream"
)

func postBatch(t *testing.T, s *Server, body string) (int, map[string]any) {
	t.Helper()
	rec := postRaw(s, "/batch", []byte(body))
	var out map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("batch response is not JSON: %v\n%s", err, rec.Body.String())
		}
	}
	return rec.Code, out
}

func TestBatchMixedOps(t *testing.T) {
	s, _ := triangleServer(t)
	code, out := postBatch(t, s, `{"ops":[
		{"op":"at","src":"a","dst":"b"},
		{"op":"row","src":"a"},
		{"op":"bfs","src":"a"},
		{"op":"pagerank","iters":50},
		{"op":"bfs","src":"nope"},
		{"op":"frobnicate"}
	]}`)
	if code != 200 {
		t.Fatalf("batch = %d", code)
	}
	results := out["results"].([]any)
	if len(results) != 6 || out["count"].(float64) != 6 {
		t.Fatalf("results = %v", out)
	}
	if r := results[0].(map[string]any); r["stored"] != true || r["value"].(float64) != 1 {
		t.Fatalf("at result = %v", r)
	}
	if r := results[1].(map[string]any); len(r["row"].(map[string]any)) != 2 {
		t.Fatalf("row result = %v", r)
	}
	if r := results[2].(map[string]any); r["result"].(map[string]any)["b"].(float64) != 1 {
		t.Fatalf("bfs result = %v", r)
	}
	if r := results[3].(map[string]any); r["result"].(map[string]any)["rank"] == nil {
		t.Fatalf("pagerank result = %v", r)
	}
	// Per-op failures are inline, tagged with the status the single-op
	// endpoint would have returned; they do not void the other answers.
	if r := results[4].(map[string]any); r["status"].(float64) != http.StatusNotFound {
		t.Fatalf("unknown-vertex op = %v, want inline 404", r)
	}
	if r := results[5].(map[string]any); r["status"].(float64) != http.StatusBadRequest ||
		!strings.Contains(r["error"].(string), "unknown op") {
		t.Fatalf("unknown op = %v, want inline 400", r)
	}
	// One pinned snapshot: the response-level epoch vector covers every op.
	if out["epochs"] == nil || out["epoch"] == nil {
		t.Fatalf("batch response missing epoch fields: %v", out)
	}
}

// A /batch pagerank op that sets no parameter runs the PageRank GET
// /pagerank runs without query parameters: the same ranks, bit for bit,
// after the same number of iterations.
func TestBatchPageRankDefaultsAreTheEndpoints(t *testing.T) {
	s, _ := triangleServer(t)
	code, got := get(t, s, "/pagerank")
	if code != 200 {
		t.Fatalf("/pagerank = %d", code)
	}
	code, out := postBatch(t, s, `{"ops":[{"op":"pagerank"}]}`)
	if code != 200 {
		t.Fatalf("batch = %d", code)
	}
	want := got["result"].(map[string]any)
	res := out["results"].([]any)[0].(map[string]any)["result"].(map[string]any)
	if !reflect.DeepEqual(res, want) || want["iterations"].(float64) < 2 {
		t.Fatalf("batch pagerank = %v, GET /pagerank = %v", res, want)
	}
}

// A /batch of point ops reads every shard's point pin — main beside its
// unfolded suffix — so at a new vector it folds no shard, and its at and
// row ops answer what a fold would have stored: a cell the suffix
// continues, a cell it adds, and a source only the suffix has met.
func TestBatchPointOpsFoldNothing(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{Shards: 2})
	seedEdges(t, ing, [2]string{"a", "b"}, [2]string{"c", "d"}) // folds every shard
	if err := ing.AppendBatch([]stream.Edge[float64]{{Src: "a", Dst: "x"}, {Src: "c", Dst: "d"}, {Src: "new", Dst: "a"}}); err != nil {
		t.Fatal(err)
	}
	s := New(ing, Options{})
	before := ing.Store().Stats()
	code, out := postBatch(t, s, `{"ops":[{"op":"at","src":"c","dst":"d"},{"op":"row","src":"a"},{"op":"at","src":"new","dst":"a"}]}`)
	if code != http.StatusOK {
		t.Fatalf("/batch = %d", code)
	}
	if after := ing.Store().Stats(); after.Folds != before.Folds || after.Pending != before.Pending {
		t.Errorf("a batch of point ops: folds %d → %d, pending %d → %d; want neither to move", before.Folds, after.Folds, before.Pending, after.Pending)
	}
	results := out["results"].([]any)
	if r := results[0].(map[string]any); r["stored"] != true || r["value"].(float64) != 2 {
		t.Errorf("at c→d = %v, want the stored 1 continued by the suffix's 1", r)
	}
	if r := results[1].(map[string]any)["row"].(map[string]any); len(r) != 2 || r["b"] != 1.0 || r["x"] != 1.0 {
		t.Errorf("row a = %v, want b and x", r)
	}
	if r := results[2].(map[string]any); r["stored"] != true {
		t.Errorf("at new→a = %v, want the suffix's edge", r)
	}
}

// Once a write has failed the client is gone, and a /batch starts no
// further op: not only is nothing more written, no kernel runs for it. A
// 256-op bfs batch on the R-MAT scale-13 store, each answer longer than a
// chunk (58 KB), whose first write fails runs the one bfs whose answer
// reached that write — counted by wrapping the op table's bfs entry.
func TestBatchRunsNoOpAfterAFailedWrite(t *testing.T) {
	s := New(rmatIngest(t, 13, 1), Options{})
	bfs := readOps["bfs"]
	t.Cleanup(func() { readOps["bfs"] = bfs })
	runs := 0
	counted := bfs
	counted.kernel = func(g *algo.Graph, op batchOp) (result, error) {
		runs++
		return bfs.kernel(g, op)
	}
	readOps["bfs"] = counted
	op := `{"op":"bfs","src":"` + rmatHub + `"}`
	body := `{"ops":[` + strings.Repeat(op+",", 255) + op + `]}`
	w := &writeRecorder{header: http.Header{}, failAt: 1}
	s.ServeHTTP(w, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
	if len(w.sizes) != 1 {
		t.Fatalf("the writer saw %d writes; want the one that failed", len(w.sizes))
	}
	if runs != 1 {
		t.Errorf("%d of 256 bfs ops ran after the first write failed inside the first; want 1", runs)
	}
}

func TestBatchRequestValidation(t *testing.T) {
	s, _ := triangleServer(t)

	// Only POST.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
		t.Fatalf("GET /batch = %d (Allow %q)", rec.Code, rec.Header().Get("Allow"))
	}

	for name, body := range map[string]string{
		"bad json":      `{"ops":[`,
		"unknown field": `{"ops":[],"nope":1}`,
		"no ops":        `{"ops":[]}`,
		"null ops":      `{}`,
	} {
		if code, _ := postBatch(t, s, body); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, code)
		}
	}

	// Over the op budget.
	small := New(s.ing, Options{MaxBatchOps: 2})
	if code, _ := postBatch(t, small, `{"ops":[{"op":"at","src":"a","dst":"b"},{"op":"at","src":"a","dst":"b"},{"op":"at","src":"a","dst":"b"}]}`); code != http.StatusBadRequest {
		t.Fatalf("over-budget batch = %d, want 400", code)
	}
	// Exactly the budget is fine.
	if code, _ := postBatch(t, small, `{"ops":[{"op":"at","src":"a","dst":"b"},{"op":"at","src":"a","dst":"b"}]}`); code != 200 {
		t.Fatalf("at-budget batch = %d, want 200", code)
	}

	// Missing required op arguments are inline 400s.
	code, out := postBatch(t, s, `{"ops":[{"op":"at","src":"a"},{"op":"row"},{"op":"bfs"}]}`)
	if code != 200 {
		t.Fatalf("batch = %d", code)
	}
	for i, r := range out["results"].([]any) {
		if r.(map[string]any)["status"].(float64) != http.StatusBadRequest {
			t.Errorf("op %d = %v, want inline 400", i, r)
		}
	}

	// PageRank overrides go through the same validation as /pagerank.
	code, out = postBatch(t, s, `{"ops":[{"op":"pagerank","damping":1.5}]}`)
	if code != 200 {
		t.Fatalf("batch = %d", code)
	}
	if r := out["results"].([]any)[0].(map[string]any); r["status"].(float64) != http.StatusBadRequest ||
		!strings.Contains(r["error"].(string), "damping") {
		t.Fatalf("bad damping op = %v, want inline 400", r)
	}
}

// The batch's reason to exist: every op in one request is answered from
// ONE pinned snapshot. While ingest keeps appending to an untouched
// part of the key space, the fixed chain v00→v01→v02 must look
// internally consistent within each response — the at/row/bfs answers
// may never mix epochs. Run under -race.
func TestBatchEpochConsistencyDuringIngest(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{BatchSize: 1})
	seedEdges(t, ing, [2]string{"v00", "v01"}, [2]string{"v01", "v02"})
	s := New(ing, Options{})

	body := `{"ops":[
		{"op":"at","src":"v00","dst":"v01"},
		{"op":"row","src":"v01"},
		{"op":"bfs","src":"v00"},
		{"op":"triangles"}
	]}`

	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastEpoch float64
			for {
				select {
				case <-done:
					return
				default:
				}
				code, out := postBatch(t, s, body)
				if code != 200 {
					panic(fmt.Sprintf("batch = %d", code))
				}
				results := out["results"].([]any)
				// Ops answered from the same snapshot: the chain edges are
				// immutable, so at/row/bfs must agree with each other in
				// every response regardless of the concurrent appends.
				if r := results[0].(map[string]any); r["stored"] != true {
					panic(fmt.Sprintf("at(v00,v01) lost its edge: %v", r))
				}
				if r := results[1].(map[string]any); r["row"].(map[string]any)["v02"] == nil {
					panic(fmt.Sprintf("row(v01) lost v02: %v", r))
				}
				if r := results[2].(map[string]any); r["result"].(map[string]any)["v02"].(float64) != 2 {
					panic(fmt.Sprintf("bfs(v00) level of v02 = %v, want 2", r))
				}
				// The response epoch vector only moves forward per reader.
				if e := out["epoch"].(float64); e < lastEpoch {
					panic(fmt.Sprintf("epoch went backwards: %v after %v", e, lastEpoch))
				} else {
					lastEpoch = e
				}
			}
		}()
	}

	// Concurrent ingest into w?? vertices — BatchSize 1 means every Add
	// advances the epoch, maximizing snapshot churn under the readers.
	for i := 0; i < 200; i++ {
		err := ing.Add(stream.Edge[float64]{
			Src: fmt.Sprintf("w%02d", i%13),
			Dst: fmt.Sprintf("w%02d", (i+5)%13),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
}
