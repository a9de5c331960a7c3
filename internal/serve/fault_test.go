package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adjarray/internal/core"
	"adjarray/internal/iofault"
	"adjarray/internal/stream"
	"adjarray/internal/wal"
)

func postIngest(t *testing.T, h http.Handler, body string) (int, http.Header, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	var resp map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST /ingest: bad JSON: %v", err)
		}
	}
	return rec.Code, rec.Header(), resp
}

// TestIngestDegradedMode is the end-to-end degraded-mode contract: a
// storage fault wedges the durable store read-only, POST /ingest sheds
// 503 + Retry-After, every read endpoint keeps answering from the last
// good snapshot, /healthz + /metrics report the state machine, and a
// reopen on the healthy disk holds every acknowledged edge.
func TestIngestDegradedMode(t *testing.T) {
	inj := iofault.New()
	dir := t.TempDir()
	ing := newTestIngest(t, core.IngestOptions{
		DataDir: dir,
		Durable: stream.DurableOptions{
			WAL: wal.Options{Policy: wal.SyncEveryAppend},
			FS:  iofault.Wrap(iofault.OS, inj),
		},
	})
	// A backstop for the early exits; the shutdown below is the one that counts.
	defer ing.Close() //adjlint:ignore syncerr the store is wedged by design; the shutdown error is the wedge

	s := New(ing, Options{})

	// Healthy path: append over HTTP, read it back.
	code, _, resp := postIngest(t, s, `{"edges":[{"src":"a","dst":"b"},{"src":"b","dst":"c"},{"src":"a","dst":"c","out":2,"in":3}]}`)
	if code != http.StatusOK || resp["appended"] != float64(3) {
		t.Fatalf("healthy ingest: code %d resp %v", code, resp)
	}
	if code, at := get(t, s, "/at?src=a&dst=c"); code != http.StatusOK || at["value"] != float64(6) {
		t.Fatalf("weighted read-back: code %d body %v", code, at)
	}
	if _, hz := get(t, s, "/healthz"); hz["storage"] != "ok" {
		t.Fatalf("healthy /healthz storage = %v, want ok", hz["storage"])
	}

	// One failed fsync on the WAL segment wedges the store.
	inj.Arm(iofault.Rule{Op: iofault.OpSync, Path: "wal-", Kind: iofault.EIO, Count: 1})
	code, hdr, _ := postIngest(t, s, `{"edges":[{"src":"c","dst":"d"}]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest over failed fsync: code %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 must carry a Retry-After hint")
	}

	// The fault budget is spent — the "disk" is healthy again — but the
	// wedge is sticky: ingest keeps shedding.
	if code, _, _ := postIngest(t, s, `{"edges":[{"src":"e","dst":"f"}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after wedge: code %d, want 503", code)
	}

	// Every read endpoint keeps serving. The wedging batch committed to
	// the in-memory view before its fsync failed (view-first append), so
	// c→d is visible; the post-wedge batch was refused outright, so e→f
	// is not.
	for _, path := range []string{"/at?src=a&dst=b", "/row?src=a", "/triples", "/bfs?src=a", "/sssp?src=a", "/stats", "/metrics"} {
		if code, _ := get(t, s, path); code != http.StatusOK {
			t.Fatalf("GET %s in read-only mode: code %d, want 200", path, code)
		}
	}
	if _, at := get(t, s, "/at?src=c&dst=d"); at["stored"] != true {
		t.Fatal("the wedging batch committed to the view; c→d must be visible")
	}
	if _, at := get(t, s, "/at?src=e&dst=f"); at["stored"] != false {
		t.Fatal("a post-wedge batch must not reach the view")
	}

	// /healthz stays ok (liveness) but reports the state machine.
	_, hz := get(t, s, "/healthz")
	if hz["ok"] != true {
		t.Fatalf("read-only mode must not fail liveness: %v", hz)
	}
	if hz["storage"] != "read-only" {
		t.Fatalf("/healthz storage = %v, want read-only", hz["storage"])
	}
	if f, ok := hz["storage_faults"].(float64); !ok || f < 1 {
		t.Fatalf("/healthz storage_faults = %v, want >= 1", hz["storage_faults"])
	}
	if hz["storage_error"] == "" {
		t.Fatal("/healthz must carry the storage error")
	}

	// /metrics exposes the gauge at 2 (read-only) and the shed counter.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exposition := rec.Body.String()
	for _, want := range []string{
		"adjserve_storage_state 2",
		"adjserve_ingest_shed_readonly_total 2",
		"adjserve_storage_faults_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Shut down (the close error IS the wedge) and reopen on the healthy
	// disk: the acknowledged batch survived.
	ing.Close() //adjlint:ignore syncerr the store is wedged by design; recovery is checked below
	re := newTestIngest(t, core.IngestOptions{DataDir: dir})
	defer re.Close() //adjlint:ignore syncerr read-only recovery probe; nothing was appended to lose
	snap, err := re.Snapshot()
	if err != nil {
		t.Fatalf("reopen after degraded serving: %v", err)
	}
	for _, e := range []struct {
		src, dst string
		want     float64
	}{{"a", "b", 1}, {"b", "c", 1}, {"a", "c", 6}} {
		if v, ok := snap.Adjacency.At(e.src, e.dst); !ok || v != e.want {
			t.Errorf("acked edge %s→%s lost across reopen: value %v stored %v, want %v", e.src, e.dst, v, ok, e.want)
		}
	}
}

// TestIngestEndpointValidation covers the non-storage refusals: wrong
// method, empty and malformed bodies, oversized batches, missing
// endpoints — none of which may touch the view.
func TestIngestEndpointValidation(t *testing.T) {
	ing := newTestIngest(t, core.IngestOptions{})
	s := New(ing, Options{MaxIngestEdges: 2})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/ingest", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
		t.Fatalf("GET /ingest: code %d Allow %q", rec.Code, rec.Header().Get("Allow"))
	}

	for body, want := range map[string]int{
		`{"edges":[]}`:            http.StatusBadRequest,
		`not json`:                http.StatusBadRequest,
		`{"edges":[{"src":"a"}]}`: http.StatusBadRequest,
		`{"edges":[{"src":"a","dst":"b"},{"src":"b","dst":"c"},{"src":"c","dst":"d"}]}`: http.StatusRequestEntityTooLarge,
	} {
		if code, _, _ := postIngest(t, s, body); code != want {
			t.Errorf("POST /ingest %q: code %d, want %d", body, code, want)
		}
	}
	if snap, err := ing.Snapshot(); err != nil || snap.Adjacency.NNZ() != 0 {
		t.Fatalf("refused batches must not touch the view: nnz %d err %v", snap.Adjacency.NNZ(), err)
	}

	// An explicitly weighted zero annihilates (stored=false) but is
	// still a valid append.
	if code, _, resp := postIngest(t, s, `{"edges":[{"src":"x","dst":"y","out":0,"in":1}]}`); code != http.StatusOK || resp["appended"] != float64(1) {
		t.Fatalf("weighted-zero append: code %d resp %v", code, resp)
	}
}

// gateFS holds every write to a checkpoint temp file until released.
type gateFS struct {
	iofault.FS
	reached chan struct{} // closed when the first such write arrives
	release chan struct{}
	once    sync.Once
}

type gateFile struct {
	iofault.File
	g *gateFS
}

func (g *gateFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	f, err := g.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &gateFile{f, g}, nil
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.g.once.Do(func() { close(f.g.reached) })
	<-f.g.release
	return f.File.Write(p)
}

// TestReadsAnswerWhileACheckpointIsWritten: a checkpoint stuck in its
// first Write holds the shard's write path, not its view and not its
// durability counters — /at, /row and /stats answer meanwhile, and so do
// the probes an operator needs most when the disk is slow, /healthz and
// /metrics — and once it is through, /metrics reports it: one
// checkpoint, its size, one duration observed.
func TestReadsAnswerWhileACheckpointIsWritten(t *testing.T) {
	gate := &gateFS{FS: iofault.OS, reached: make(chan struct{}), release: make(chan struct{})}
	ing := newTestIngest(t, core.IngestOptions{
		DataDir: t.TempDir(),
		Durable: stream.DurableOptions{FS: gate},
	})
	defer ing.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // before Close, which checkpoints: a failure above must not hang it
	s := New(ing, Options{})
	if code, _, _ := postIngest(t, s, `{"edges":[{"src":"a","dst":"b","out":2,"in":3},{"src":"b","dst":"c"}]}`); code != http.StatusOK {
		t.Fatalf("ingest: code %d", code)
	}
	done := make(chan error, 1)
	go func() { done <- ing.Store().Checkpoint() }()
	select {
	case <-gate.reached:
	case err := <-done:
		t.Fatalf("checkpoint finished without writing: %v", err)
	}
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		if code, at := get(t, s, "/at?src=a&dst=b"); code != http.StatusOK || at["value"] != float64(6) {
			t.Errorf("/at during the checkpoint: code %d body %v", code, at)
		}
		for _, path := range []string{"/row?src=b", "/stats", "/healthz", "/metrics"} {
			if code, _ := get(t, s, path); code != http.StatusOK {
				t.Errorf("GET %s during the checkpoint: code %d", path, code)
			}
		}
	}()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("reads waited on a checkpoint blocked in Write")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for scrape := 0; scrape < 2; scrape++ { // the second scrape must not observe the checkpoint again
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		exposition := rec.Body.String()
		size := ing.Store().Durability()[0].CheckpointBytes
		for _, want := range []string{
			`adjserve_checkpoints_total{shard="0"} 1`,
			fmt.Sprintf(`adjserve_checkpoint_bytes{shard="0"} %d`, size),
			`adjserve_checkpoint_seconds_count{shard="0"} 1`,
		} {
			if size == 0 || !strings.Contains(exposition, want) {
				t.Errorf("scrape %d: /metrics missing %q", scrape, want)
			}
		}
	}
}
