package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adjarray/internal/core"
)

// The two HTTP body decoders, fuzzed under the contract the checkpoint
// decoders hold (FuzzDecodeView): arbitrary bytes are answered with a
// client error or a valid response, never a panic and never a 5xx. Each
// input meets its own in-memory one-shard server, so a crasher reproduces
// from its corpus file alone.

const fuzzBodyBudget = 8 // MaxIngestEdges / MaxBatchOps of the fuzzed servers

func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// repeatJSON renders {"<field>":[elem × n]}.
func repeatJSON(field, elem string, n int) string {
	return fmt.Sprintf(`{%q:[%s]}`, field, strings.TrimSuffix(strings.Repeat(elem+",", n), ","))
}

func FuzzIngestBody(f *testing.F) {
	for _, body := range []string{
		`{"edges":[{"src":"a","dst":"b"},{"key":"k9","src":"b","dst":"c","out":2,"in":0.5}]}`,
		`{"edges":[{"src":"a","dst":"b","out":0}]}`, // an explicit Zero weight is a weight
		`{"edges":[{"src":"a","dst":"b"},{"src":"a"}]}`,
		`{"edges":[{"key":"k2","src":"a","dst":"b"},{"key":"k1","src":"b","dst":"c"}]}`, // keys must ascend
		repeatJSON("edges", `{"src":"a","dst":"b"}`, fuzzBodyBudget),
		repeatJSON("edges", `{"src":"a","dst":"b"}`, fuzzBodyBudget+1),
		`{"edges":[{"src":"a","dst":"b"},{"src":"b","ds`,
		`{"edges":[{"src":"a","dst":"b"}],"edges":[{"src":"c","dst":"d","src":"e"}]}`,
		`{"edges":[{"src":"a","dst":"b","out":1e999}]}`,
		`{"edges":null}`, `[]`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ing := newTestIngest(t, core.IngestOptions{})
		s := New(ing, Options{MaxIngestEdges: fuzzBodyBudget})
		seedEdges(t, ing, [2]string{"a", "b"})
		before := ing.Store().Stats()

		rec := postRaw(s, "/ingest", body)
		code, stats := get(t, s, "/stats")
		if code != http.StatusOK {
			t.Fatalf("/stats after the ingest = %d", code)
		}
		grew := int(stats["Edges"].(float64)) - before.Edges
		switch rec.Code {
		case http.StatusOK:
			var ack struct{ Appended int }
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("200 body is not JSON: %v\n%s", err, rec.Body)
			}
			if ack.Appended < 1 || ack.Appended > fuzzBodyBudget || grew != ack.Appended {
				t.Fatalf("acknowledged %d edges (budget %d), the store grew by %d", ack.Appended, fuzzBodyBudget, grew)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			// A refused batch is refused whole.
			if grew != 0 {
				t.Fatalf("refused with %d, yet the store grew by %d edges", rec.Code, grew)
			}
		default:
			t.Fatalf("/ingest answered %d: %s", rec.Code, rec.Body)
		}
	})
}

func FuzzBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"ops":[{"op":"at","src":"a","dst":"b"},{"op":"row","src":"a"},{"op":"bfs","src":"a"},{"op":"sssp","src":"a"}]}`,
		`{"ops":[{"op":"widest","src":"a"},{"op":"pagerank","damping":0.5,"tol":1e-3,"iters":7},{"op":"triangles"}]}`,
		`{"ops":[{"op":"frobnicate"}]}`,
		`{"ops":[{"op":"bfs","src":"nope"},{"op":"at","src":"nope","dst":"b"},{"op":"row","src":"nope"}]}`,
		`{"ops":[{"op":"pagerank","damping":1.5},{"op":"pagerank","iters":-1},{"op":"at","src":"a"}]}`,
		repeatJSON("ops", `{"op":"at","src":"a","dst":"b"}`, fuzzBodyBudget),
		repeatJSON("ops", `{"op":"at","src":"a","dst":"b"}`, fuzzBodyBudget+1),
		`{"ops":[{"op":"at","src":"a","dst":"b"}],"nope":1}`,
		`{"ops":[{"op":"at","src":"a","ds`,
		`{"ops":[]}`, `{}`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ing := newTestIngest(t, core.IngestOptions{})
		s := New(ing, Options{MaxBatchOps: fuzzBodyBudget})
		// Symmetric, so the triangles op reaches its kernel.
		seedEdges(t, ing, [2]string{"a", "b"}, [2]string{"b", "a"}, [2]string{"b", "c"}, [2]string{"c", "b"},
			[2]string{"a", "c"}, [2]string{"c", "a"}, [2]string{"c", "d"}, [2]string{"d", "c"})
		before := ing.Store().Stats()

		rec := postRaw(s, "/batch", body)
		switch rec.Code {
		case http.StatusOK:
			var out struct {
				Count   int
				Results []struct {
					Error  *string
					Status int
				}
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body is not JSON: %v\n%s", err, rec.Body)
			}
			if out.Count < 1 || out.Count > fuzzBodyBudget || len(out.Results) != out.Count {
				t.Fatalf("count %d (budget %d) with %d results", out.Count, fuzzBodyBudget, len(out.Results))
			}
			for i, r := range out.Results {
				failed := r.Error != nil
				inline := r.Status == http.StatusBadRequest || r.Status == http.StatusNotFound || r.Status == http.StatusUnprocessableEntity
				if failed != inline || (!failed && r.Status != 0) {
					t.Fatalf("op %d: error %v with status %d\n%s", i, r.Error, r.Status, rec.Body)
				}
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("/batch answered %d: %s", rec.Code, rec.Body)
		}
		// A read batch writes nothing.
		if after := ing.Store().Stats(); after.Edges != before.Edges || after.Epochs[0] != before.Epochs[0] {
			t.Fatalf("the store moved under a read batch: %d edges at %v → %d at %v", before.Edges, before.Epochs, after.Edges, after.Epochs)
		}
	})
}
