package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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
