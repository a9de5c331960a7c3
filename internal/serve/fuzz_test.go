package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adjarray/internal/core"
)

// The two HTTP body decoders, fuzzed under the contract the checkpoint
// decoders hold (FuzzDecodeView): arbitrary bytes are answered with a
// client error or a valid response, never a panic and never a 5xx — and a
// 200 acknowledges the whole body: it is one JSON value, white space
// aside, and the answer counts every edge or op in it. Each input meets
// its own in-memory one-shard server, so a crasher reproduces from its
// corpus file alone.

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
		`{"edges":[{"src":"a","dst":"b"}]}{"edges":[{"src":"c","dst":"d"}]}`, // a second value is not a second batch
		"{\"edges\":[{\"src\":\"a\",\"dst\":\"b\"}]} \r\n\t",                 // white space after the value is fine
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
			var whole struct{ Edges []json.RawMessage }
			if err := json.Unmarshal(body, &whole); err != nil || len(whole.Edges) != ack.Appended {
				t.Fatalf("acknowledged %d edges of a body holding %d (%v): %q", ack.Appended, len(whole.Edges), err, body)
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
		`{"ops":[{"op":"at","src":"a","dst":"b"}]} garbage`,
		`{"ops":[{"op":"at","src":"a","dst":"b"}]}{"ops":[{"op":"row","src":"a"}]}`,
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
			var whole batchRequest
			if err := json.Unmarshal(body, &whole); err != nil || len(whole.Ops) != out.Count {
				t.Fatalf("answered %d ops of a body holding %d (%v): %q", out.Count, len(whole.Ops), err, body)
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

// queryRoutes are the GET read routes: the seven ops and /triples.
var queryRoutes = []string{"/at", "/row", "/triples", "/bfs", "/sssp", "/widest", "/pagerank", "/triangles"}

// FuzzQuery holds every GET read answer — any route with any raw query
// string, parameters unknown, repeated, empty, badly escaped or out of
// range included — to the reference renderer: status, headers and body,
// byte for byte, 400 texts included. shape picks the route and the
// store: one or two shards, symmetric or not (so /triangles both refuses
// and answers), under one of the golden operator pairs.
func FuzzQuery(f *testing.F) {
	// goldenRequests marks itself a helper and fails only on a /batch body
	// it cannot marshal; the GET targets it builds are all that is kept.
	for _, rq := range goldenRequests(&testing.T{}) {
		path, query, _ := strings.Cut(rq.target, "?")
		if route := slices.Index(queryRoutes, path); rq.method == "GET" && route >= 0 {
			f.Add(uint8(route), query)
			f.Add(uint8(route+len(queryRoutes)), query)
		}
	}
	semirings := []string{"+.*", "max.min", "min.+"}
	f.Fuzz(func(t *testing.T, shape uint8, query string) {
		n := int(shape)
		route := queryRoutes[n%len(queryRoutes)]
		n /= len(queryRoutes)
		ing := goldenStore(t, semirings[n%len(semirings)], 1+n/3%2, n/6%2 == 1)
		live, ref := New(ing, Options{}), newRefServer(ing, Options{})
		serve := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", route, nil)
			req.URL.RawQuery = query
			h.ServeHTTP(rec, req)
			return rec
		}
		got, want := serve(live), serve(ref)
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("GET %s?%s: status %d headers %v, reference %d %v", route, query, got.Code, got.Header(), want.Code, want.Header())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("GET %s?%s: body differs from the reference at byte %d\n got: %.300q\nwant: %.300q", route, query,
				firstDifference(got.Body.Bytes(), want.Body.Bytes()), got.Body.String(), want.Body.String())
		}
	})
}

// A body is one JSON value. What follows it — a second batch, or anything
// else but white space — is refused with a 400 that names it, and nothing
// of the body is appended or run; before, the first value was acknowledged
// and the rest dropped without a word.
func TestTrailingDataIsRefused(t *testing.T) {
	for _, c := range []struct{ path, body string }{
		{"/ingest", `{"edges":[{"src":"a","dst":"b"}]}{"edges":[{"src":"c","dst":"d"}]}`},
		{"/ingest", `{"edges":[{"src":"a","dst":"b"}]} ,`},
		{"/batch", `{"ops":[{"op":"at","src":"a","dst":"b"}]} garbage`},
		{"/batch", `{"ops":[{"op":"at","src":"a","dst":"b"}]}{"ops":[{"op":"row","src":"a"}]}`},
	} {
		ing := newTestIngest(t, core.IngestOptions{})
		s := New(ing, Options{})
		seedEdges(t, ing, [2]string{"a", "b"})
		rec := postRaw(s, c.path, []byte(c.body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "trailing data") {
			t.Errorf("POST %s %s = %d %q, want 400 naming the trailing data", c.path, c.body, rec.Code, rec.Body)
		}
		if st := ing.Store().Stats(); st.Edges != 1 {
			t.Errorf("POST %s %s: the store holds %d edges, want the 1 seeded", c.path, c.body, st.Edges)
		}
		// The same value alone is answered.
		end := strings.Index(c.body, "]}") + 2
		if rec := postRaw(s, c.path, []byte(c.body[:end]+" \n")); rec.Code != http.StatusOK {
			t.Errorf("POST %s %s = %d %q", c.path, c.body[:end], rec.Code, rec.Body)
		}
	}
}
