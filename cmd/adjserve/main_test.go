package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"adjarray/internal/core"
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
