package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"adjarray/internal/core"
	"adjarray/internal/stream"
)

// hubStore holds one source, "h", whose /row answer is exactly size
// bytes: n unit entries "d00000":1 and one more whose key is padded
// until the answer has that length.
func hubStore(t *testing.T, size int) *core.Ingest {
	t.Helper()
	build := func(n, pad int) (*core.Ingest, int) {
		edges := make([]stream.Edge[float64], 0, n+1)
		for i := 0; i < n; i++ {
			edges = append(edges, stream.Edge[float64]{Src: "h", Dst: fmt.Sprintf("d%05d", i)})
		}
		edges = append(edges, stream.Edge[float64]{Src: "h", Dst: "p" + strings.Repeat("x", pad)})
		ing := newTestIngest(t, core.IngestOptions{})
		if err := ing.AppendBatch(edges); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		New(ing, Options{}).ServeHTTP(rec, httptest.NewRequest("GET", "/row?src=h", nil))
		return ing, rec.Body.Len()
	}
	n := (size - 100) / len(`"d00000":1,`)
	_, base := build(n, 0)
	ing, got := build(n, size-base)
	if got != size {
		t.Fatalf("the hub's /row answer is %d bytes; want %d", got, size)
	}
	return ing
}

// fetch answers one request over a real connection, so the client sees
// what the wire carries: the framing (Content-Length or chunked) and
// the body it decodes.
func fetch(t *testing.T, h http.Handler, method, target, body string) (*http.Response, []byte) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	req, err := http.NewRequest(method, srv.URL+target, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// pageRankBatch is a /batch body of n PageRank ops.
func pageRankBatch(n, iters int) string {
	op := fmt.Sprintf(`{"op":"pagerank","iters":%d}`, iters)
	return `{"ops":[` + strings.Repeat(op+",", n-1) + op + `]}`
}

// An answer streamed a chunk at a time is the answer the reference
// renderer writes whole, byte for byte, at either side of the chunk
// boundary and across several chunks. An answer that fits one chunk
// goes out with its Content-Length and a longer one chunked; that is the
// only difference in the headers.
func TestStreamedAnswersMatchTheReference(t *testing.T) {
	type request struct{ method, target, body string }
	cases := []struct {
		name string
		ing  *core.Ingest
		req  request
	}{
		{"row chunk-1", hubStore(t, chunk-1), request{"GET", "/row?src=h", ""}},
		{"row chunk", hubStore(t, chunk), request{"GET", "/row?src=h", ""}},
		{"row chunk+1", hubStore(t, chunk+1), request{"GET", "/row?src=h", ""}},
		{"row 3 chunks", hubStore(t, 3*chunk+chunk/2), request{"GET", "/row?src=h", ""}},
		{"batch of pageranks", rmatIngest(t, 12, 1), request{"POST", "/batch", pageRankBatch(4, 20)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live, ref := New(c.ing, Options{}), newRefServer(c.ing, Options{})
			got, body := fetch(t, live, c.req.method, c.req.target, c.req.body)
			want, wantBody := fetch(t, ref, c.req.method, c.req.target, c.req.body)
			if got.StatusCode != http.StatusOK || want.StatusCode != http.StatusOK {
				t.Fatalf("status %d, reference %d", got.StatusCode, want.StatusCode)
			}
			if !bytes.Equal(body, wantBody) {
				t.Fatalf("body of %d bytes differs from the reference's %d at byte %d", len(body), len(wantBody), firstDifference(body, wantBody))
			}
			fits := len(body) <= chunk
			if c.name == "batch of pageranks" && fits {
				t.Fatalf("the batch answer is %d bytes; it was meant to span chunks", len(body))
			}
			chunked := reflect.DeepEqual(got.TransferEncoding, []string{"chunked"})
			if fits != (got.ContentLength == int64(len(body))) || fits == chunked {
				t.Errorf("%d-byte answer: Content-Length %d, Transfer-Encoding %v; want a Content-Length exactly when it fits one chunk of %d",
					len(body), got.ContentLength, got.TransferEncoding, chunk)
			}
			strip := func(h http.Header) http.Header {
				h = h.Clone()
				for _, k := range []string{"Content-Length", "Date"} {
					h.Del(k)
				}
				return h
			}
			if g, w := strip(got.Header), strip(want.Header); !reflect.DeepEqual(g, w) {
				t.Errorf("headers %v, reference %v", g, w)
			}
		})
	}
}

// writeRecorder is a ResponseWriter that keeps the size of each write and
// the bytes in total, and fails the write numbered failAt (from 1) and
// every one after it.
type writeRecorder struct {
	header http.Header
	code   int
	sizes  []int
	total  int
	failAt int
}

var errGone = errors.New("client gone")

func (w *writeRecorder) Header() http.Header  { return w.header }
func (w *writeRecorder) WriteHeader(code int) { w.code = code }
func (w *writeRecorder) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	if w.failAt > 0 && len(w.sizes) >= w.failAt {
		return 0, errGone
	}
	w.total += len(p)
	return len(p), nil
}

// A /batch of 64 PageRanks on the R-MAT scale-14 store is a ~23 MB
// answer, and it is never held whole: no write carries more than one
// chunk and one entry (the longest is a key, a rank and the opening of
// the next op, under 128 bytes), and what the pool keeps afterwards is
// chunk-sized.
func TestBatchAnswerIsWrittenInChunks(t *testing.T) {
	const entry = 128
	s := New(rmatIngest(t, 14, 1), Options{})
	w := &writeRecorder{header: http.Header{}, code: http.StatusOK}
	s.ServeHTTP(w, httptest.NewRequest("POST", "/batch", strings.NewReader(pageRankBatch(64, 20))))
	if w.code != http.StatusOK || w.total < 20<<20 {
		t.Fatalf("/batch = %d with %d bytes; want 200 and a body past 20 MB", w.code, w.total)
	}
	if cl := w.header.Get("Content-Length"); cl != "" {
		t.Errorf("a %d-byte answer carries Content-Length %s", w.total, cl)
	}
	largest := 0
	for _, n := range w.sizes {
		largest = max(largest, n)
	}
	t.Logf("%d bytes in %d writes, the largest %d", w.total, len(w.sizes), largest)
	if largest > chunk+entry {
		t.Errorf("a write carried %d bytes; want at most one chunk and one entry, %d", largest, chunk+entry)
	}
	s.answers.New = nil // so Get drains the pool and then says so
	for p := s.answers.Get(); p != nil; p = s.answers.Get() {
		if c := cap(p.(*answer).held); c > 2*chunk {
			t.Errorf("the pool holds a %d-byte slice; want at most two chunks, %d", c, 2*chunk)
		}
	}
}

// A write that fails is the client's disconnect: it ends the answer,
// whichever renderer's loop it lands in — a kernel's vector, /triples'
// sweep, a /batch between or inside its ops. It is counted once, and the
// writer sees no write after it. Over a real connection, a client that
// reads the first byte of a ~25 MB answer and hangs up ends it the same
// way, while the handler is still rendering.
func TestDisconnectEndsTheAnswer(t *testing.T) {
	s := New(rmatIngest(t, 12, 1), Options{})
	for _, req := range []struct{ method, target, body string }{
		{"GET", "/pagerank?iters=20", ""},
		{"GET", "/triples?limit=10000", ""},
		{"POST", "/batch", pageRankBatch(16, 20)},
		{"POST", "/batch", `{"ops":[` + strings.Repeat(`{"op":"bfs","src":"`+rmatHub+`"},`, 15) + `{"op":"triangles"}]}`},
	} {
		before := s.met.writeErrors.Value()
		w := &writeRecorder{header: http.Header{}, failAt: 2}
		s.ServeHTTP(w, httptest.NewRequest(req.method, req.target, strings.NewReader(req.body)))
		if n := s.met.writeErrors.Value() - before; n != 1 {
			t.Errorf("%s %s: a failed write counted %d times; want once", req.method, req.target, n)
		}
		if len(w.sizes) != 2 {
			t.Errorf("%s %s: the writer saw %d writes; want none after the failed second", req.method, req.target, len(w.sizes))
		}
	}

	before := s.met.writeErrors.Value()
	srv := httptest.NewServer(s)
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json", strings.NewReader(pageRankBatch(256, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resp.Body.Read(make([]byte, 1)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch = %d, first read %v", resp.StatusCode, err)
	}
	resp.Body.Close() // unread, so the client closes the connection
	srv.Close()       // waits for the handler
	if n := s.met.writeErrors.Value() - before; n != 1 {
		t.Errorf("a client that hung up mid-answer counted %d failed writes; want 1", n)
	}
}
