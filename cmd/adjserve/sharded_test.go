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

func newShardedTestIngest(t *testing.T, shards int) *core.Ingest {
	t.Helper()
	ing, err := core.NewIngest(core.IngestOptions{Semiring: "+.*", BatchSize: 4, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// decodeEpochs pulls the epoch vector out of a response body.
func decodeEpochs(t *testing.T, body map[string]any) []int {
	t.Helper()
	raw, ok := body["epochs"].([]any)
	if !ok {
		t.Fatalf("response carries no epoch vector: %v", body)
	}
	epochs := make([]int, len(raw))
	for i, v := range raw {
		epochs[i] = int(v.(float64))
	}
	return epochs
}

// The epoch-pinning property: while multiple producers append to a
// 3-shard ingest, every /bfs and /pagerank response reports a single
// consistent epoch vector — the full shard count, each component
// monotonically non-decreasing across a reader's successive requests,
// and the scalar epoch equal to the vector's sum (one pinned snapshot
// answered the whole request; no response mixes shard A at epoch 7 with
// a later re-read of shard B). Run with -race: this is also the data-race
// gate for the scatter-gather serving path.
func TestEpochVectorPinnedDuringShardedIngest(t *testing.T) {
	const shards = 3
	ing := newShardedTestIngest(t, shards)
	sv := ing.Store()
	if sv.Shards() != shards {
		t.Fatalf("Shards: 3 produced %d shards", sv.Shards())
	}
	// Seed a known reachable pair so /bfs?src=v00 always resolves.
	seed := []stream.Edge[float64]{
		stream.Weighted("", "v00", "v01", 1.0, 1.0),
		stream.Weighted("", "v01", "v02", 1.0, 1.0),
	}
	if err := sv.Append(seed); err != nil {
		t.Fatal(err)
	}
	h := handler(ing)

	done := make(chan struct{})
	var readers sync.WaitGroup
	readerErr := make([]error, 4)
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			paths := []string{"/bfs?src=v00", "/pagerank?iters=10", "/triples?limit=5", "/at?src=v00&dst=v01"}
			last := make([]int, shards)
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
					readerErr[w] = fmt.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
					return
				}
				var body map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					readerErr[w] = fmt.Errorf("GET %s: bad JSON: %v", path, err)
					return
				}
				epochs, ok := body["epochs"].([]any)
				if !ok || len(epochs) != shards {
					readerErr[w] = fmt.Errorf("GET %s: epoch vector %v, want %d components", path, body["epochs"], shards)
					return
				}
				sum := 0
				for s, v := range epochs {
					e := int(v.(float64))
					if e < last[s] {
						readerErr[w] = fmt.Errorf("GET %s: shard %d epoch went backwards: %d after %d", path, s, e, last[s])
						return
					}
					last[s] = e
					sum += e
				}
				if int(body["epoch"].(float64)) != sum {
					readerErr[w] = fmt.Errorf("GET %s: scalar epoch %v != vector sum %d", path, body["epoch"], sum)
					return
				}
			}
		}(w)
	}

	// Concurrent multi-shard ingest through the narrow-lock front (the
	// production write path), three producers.
	const producers, perProducer = 3, 300
	f := newFront(ing, 8)
	var writers sync.WaitGroup
	writerErr := make([]error, producers)
	for p := 0; p < producers; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(40 + p)))
			for i := 0; i < perProducer; i++ {
				e := stream.Weighted("",
					fmt.Sprintf("v%02d", r.Intn(24)),
					fmt.Sprintf("v%02d", r.Intn(24)), 1.0, 1.0)
				if err := f.add(e); err != nil {
					writerErr[p] = err
					return
				}
			}
		}(p)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	for _, err := range append(writerErr, readerErr...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := f.flush(); err != nil {
		t.Fatal(err)
	}

	st := sv.Stats()
	if want := len(seed) + producers*perProducer; st.Edges != want {
		t.Fatalf("ingested %d edges, want %d", st.Edges, want)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/bfs?src=v00", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("final /bfs = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	finalEpochs := decodeEpochs(t, body)
	sum := 0
	for i, e := range finalEpochs {
		if e != st.Epochs[i] {
			t.Fatalf("final epoch vector %v != stats vector %v", finalEpochs, st.Epochs)
		}
		sum += e
	}
	if int(body["epoch"].(float64)) != sum {
		t.Fatalf("final scalar epoch %v != sum %d", body["epoch"], sum)
	}
}

// A sharded durable serving process across a restart: the first run
// ingests across per-shard WAL directories and closes (per-shard final
// checkpoints); the second adopts the recorded shard count, recovers
// every shard, and reports the durability vector on /healthz.
func TestShardedDurableRestartAndHealthz(t *testing.T) {
	dir := t.TempDir()
	open := func(shards int) *core.Ingest {
		t.Helper()
		ing, err := core.NewIngest(core.IngestOptions{Semiring: "+.*", BatchSize: 4, Shards: shards, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return ing
	}

	ing := open(3)
	for i := 0; i < 17; i++ {
		e := stream.Weighted("", fmt.Sprintf("v%02d", i%7), fmt.Sprintf("v%02d", (i+1)%7), 1.0, 1.0)
		if err := ing.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// Shards: -1 (GOMAXPROCS) must still adopt the recorded count 3.
	ing = open(-1)
	defer ing.Close()
	sv := ing.Store()
	if !sv.Persistent() {
		t.Fatal("reopened store is not a durable sharded ingest")
	}
	if sv.Shards() != 3 {
		t.Fatalf("reopened with %d shards, want recorded 3", sv.Shards())
	}
	if st := sv.Stats(); st.Edges != 17 {
		t.Fatalf("recovered %d edges, want 17", st.Edges)
	}

	h := handler(ing)
	code, body := get(t, h, "/healthz")
	if code != 200 || body["ok"] != true || body["durable"] != true {
		t.Fatalf("/healthz = %d %v", code, body)
	}
	if int(body["shards"].(float64)) != 3 {
		t.Fatalf("/healthz shards = %v", body["shards"])
	}
	epochs := body["epochs"].([]any)
	durable := body["durable_epochs"].([]any)
	if len(epochs) != 3 || len(durable) != 3 {
		t.Fatalf("/healthz vectors = %v / %v", epochs, durable)
	}
	if body["wal_lag"].(float64) != 0 {
		t.Fatalf("/healthz wal_lag = %v, want 0 after checkpointed close", body["wal_lag"])
	}
	for i := range epochs {
		if epochs[i] != durable[i] {
			t.Fatalf("shard %d not fully durable after close: %v vs %v", i, epochs, durable)
		}
	}

	// Serving works from the recovered store.
	if code, body := get(t, h, "/at?src=v00&dst=v01"); code != 200 || body["stored"] != true {
		t.Fatalf("recovered /at = %d %v", code, body)
	}
	if code, _ := get(t, h, "/bfs?src=v00"); code != 200 {
		t.Fatalf("recovered /bfs = %d", code)
	}
}
