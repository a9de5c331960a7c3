package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"adjarray/internal/core"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
)

// Keys that exercise every branch of the string escaper, and the order
// between them: the quote, the backslash, control bytes with and without
// a two-character escape, DEL (not escaped), the HTML three, a
// two-byte rune, LINE SEPARATOR, and a byte that is not UTF-8.
var goldenKeys = []string{
	"a", "b", "c", `q"uote`, `back\slash`, "new\nline", "nul\x00byte", "bell\x07", "tab\t",
	"del\x7f", "<>&", "\u00e9", "sep\u2028", "par\u2029", "bad\xff", "\xffleading", "plain",
}

// goldenValues per operator pair: what each algebra can store (its Zero
// is pruned), chosen to hit the 'f'/'e' switch on both sides, the
// exponent clean-up, the shortest-digits path at both ends of the range,
// negative zero, and the three non-numbers.
var goldenValues = map[string][]float64{
	"+.*":     {1, 2.5, 1e21, 1e-7, 123456789.125, 5e-324, math.MaxFloat64, 999999999999999900000, 0.000001},
	"max.min": {math.Inf(1), 1e21, 1e-7, 123456789.125, 5e-324, math.MaxFloat64, math.NaN(), 3},
	"min.+":   {0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), 1e21, -1e-7, 123456789.125, 7},
}

// oneOf is the One of the registered operator pair name.
func oneOf(t *testing.T, name string) float64 {
	t.Helper()
	entry, ok := semiring.Lookup(name)
	if !ok {
		t.Fatalf("no operator pair %q", name)
	}
	return entry.Ops.One
}

// goldenStore ingests a graph over goldenKeys whose stored values cycle
// through the pair's goldenValues: a ring (so every vertex is reached),
// chords, and — when symmetric — every edge's reverse.
func goldenStore(t *testing.T, semiring string, shards int, symmetric bool) *core.Ingest {
	t.Helper()
	ing := newTestIngest(t, core.IngestOptions{Semiring: semiring, Shards: shards, BatchSize: 5})
	// out ⊗ One = out, so the stored value is the listed one — with −0 for
	// min.+'s One, the identity of + that keeps a −0.
	one := oneOf(t, semiring)
	if one == 0 {
		one = math.Copysign(0, -1)
	}
	vals := goldenValues[semiring]
	n := 0
	add := func(src, dst string) {
		e := stream.Edge[float64]{Src: src, Dst: dst, Out: vals[n%len(vals)], In: one, HasOut: true, HasIn: true}
		n++
		if err := ing.Add(e); err != nil {
			t.Fatal(err)
		}
		if symmetric {
			e.Src, e.Dst = dst, src
			if err := ing.Add(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, k := range goldenKeys {
		add(k, goldenKeys[(i+1)%len(goldenKeys)])
		if i%3 == 0 {
			add(k, goldenKeys[(i+5)%len(goldenKeys)])
		}
	}
	if _, err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return ing
}

type goldenRequest struct {
	method, target, body string
}

func goldenGet(path string, params ...string) goldenRequest {
	q := url.Values{}
	for i := 0; i+1 < len(params); i += 2 {
		q.Set(params[i], params[i+1])
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return goldenRequest{method: "GET", target: path}
}

// goldenRequests is every read endpoint, every /batch op kind and every
// way each of them can fail, over the golden keys.
func goldenRequests(t *testing.T) []goldenRequest {
	t.Helper()
	reqs := []goldenRequest{
		goldenGet("/at"), goldenGet("/at", "src", "a"),
		goldenGet("/at", "src", "a", "dst", "b"), goldenGet("/at", "src", "a", "dst", "nobody"),
		goldenGet("/at", "src", "nobody", "dst", "<script>"),
		goldenGet("/row"), goldenGet("/row", "src", "nobody"), goldenGet("/row", "src", "<&>"),
		goldenGet("/triples"), goldenGet("/triples", "limit", "1"), goldenGet("/triples", "limit", "7"),
		goldenGet("/triples", "limit", "0"), goldenGet("/triples", "limit", "x"),
		goldenGet("/bfs"), goldenGet("/bfs", "src", "nobody"), goldenGet("/sssp", "src", "no\"body"),
		goldenGet("/widest"), goldenGet("/triangles"),
		goldenGet("/pagerank"), goldenGet("/pagerank", "iters", "3"), goldenGet("/pagerank", "damping", "0.5", "tol", "1e-3"),
		goldenGet("/pagerank", "damping", "1.5"), goldenGet("/pagerank", "iters", "x"),
		{method: "GET", target: "/batch"},
		{method: "POST", target: "/batch", body: `{"ops":[`},
		{method: "POST", target: "/batch", body: `{"ops":[]}`},
	}
	var ops []batchOp
	half, three := 0.5, 3
	for _, k := range goldenKeys {
		next := goldenKeys[(len(k)+3)%len(goldenKeys)]
		reqs = append(reqs,
			goldenGet("/at", "src", k, "dst", next), goldenGet("/row", "src", k),
			goldenGet("/bfs", "src", k), goldenGet("/sssp", "src", k), goldenGet("/widest", "src", k))
		ops = append(ops, batchOp{Op: "at", Src: k, Dst: next}, batchOp{Op: "row", Src: k},
			batchOp{Op: "bfs", Src: k}, batchOp{Op: "sssp", Src: k}, batchOp{Op: "widest", Src: k})
	}
	ops = append(ops,
		batchOp{Op: "pagerank"}, batchOp{Op: "pagerank", Damping: &half, Iters: &three}, batchOp{Op: "triangles"},
		// Every per-op error object: 400 (missing argument, bad parameter,
		// unknown and empty op names), 404 (not a vertex), 422 (triangles on
		// an asymmetric store, above).
		batchOp{Op: "at", Src: "a"}, batchOp{Op: "row"}, batchOp{Op: "bfs"}, batchOp{Op: "sssp"}, batchOp{Op: "widest"},
		batchOp{Op: "pagerank", Damping: &[]float64{1.5}[0]}, batchOp{Op: "bfs", Src: "no<body>"},
		batchOp{Op: "frob\"<nicate>"}, batchOp{},
		batchOp{Op: "at", Src: "nobody", Dst: "a"}, batchOp{Op: "row", Src: "nobody"})
	body, err := json.Marshal(batchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return append(reqs, goldenRequest{method: "POST", target: "/batch", body: string(body)})
}

func serveGolden(h http.Handler, rq goldenRequest) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.target, strings.NewReader(rq.body)))
	return rec
}

// TestAnswersAreByteIdenticalToEncodingJSON holds every read answer —
// status, headers and body, as bytes — to the reference renderer: the
// former handlers, which build map[string]any and hand it to
// json.Encoder. On one and two shards (a point read then pins one shard
// and the reference gathers both), under three operator pairs whose
// stored values cover the float formatter, over keys that cover the
// string escaper, on a symmetric store (the only one /triangles
// answers) and on an empty one.
func TestAnswersAreByteIdenticalToEncodingJSON(t *testing.T) {
	var seen bytes.Buffer // every 200 body, to check the cases meant to be covered are
	requests := goldenRequests(t)
	compare := func(t *testing.T, ing *core.Ingest) {
		t.Helper()
		opt := Options{MaxBatchOps: 1000}
		live, ref := New(ing, opt), newRefServer(ing, opt)
		for _, rq := range requests {
			got, want := serveGolden(live, rq), serveGolden(ref, rq)
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("%s %s: status %d headers %v, reference %d %v", rq.method, rq.target, got.Code, got.Header(), want.Code, want.Header())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s %s: body differs from the reference at byte %d\n got: %.300q\nwant: %.300q", rq.method, rq.target,
					firstDifference(got.Body.Bytes(), want.Body.Bytes()), got.Body.String(), want.Body.String())
			}
			if got.Code == http.StatusOK {
				seen.Write(got.Body.Bytes())
			}
		}
	}
	for _, shards := range []int{1, 2} {
		for semiring := range goldenValues {
			t.Run(fmt.Sprintf("%s/shards=%d", semiring, shards), func(t *testing.T) {
				compare(t, goldenStore(t, semiring, shards, false))
			})
		}
		t.Run(fmt.Sprintf("symmetric/shards=%d", shards), func(t *testing.T) {
			compare(t, goldenStore(t, "+.*", shards, true))
		})
		t.Run(fmt.Sprintf("empty/shards=%d", shards), func(t *testing.T) {
			compare(t, newTestIngest(t, core.IngestOptions{Shards: shards}))
		})
	}
	for _, want := range []string{
		`"row":{}`, `"triples":[]`, `"rank":{}`, `"result":0}`, `"status":400`, `"status":404`, `"status":422`,
		`"op":"frob\"\u003cnicate\u003e"`, `"op":""`,
		`"q\"uote"`, `"back\\slash"`, `"new\nline"`, `"nul\u0000byte"`, `"bell\u0007"`, `"tab\t"`, "\"del\x7f\"",
		`"\u003c\u003e\u0026"`, "\"\u00e9\"", `"sep\u2028"`, `"par\u2029"`, `"bad\ufffd"`, `"\ufffdleading"`,
		`"val":0}`, `"val":-0}`, `"val":1e+21}`, `"val":1e-7}`, `"val":-1e-7}`, `"val":123456789.125}`, `"val":5e-324}`,
		`"val":1.7976931348623157e+308}`, `"val":999999999999999900000}`, `"val":0.000001}`,
		`"val":"+Inf"}`, `"val":"-Inf"}`, `"val":"NaN"}`,
	} {
		if !bytes.Contains(seen.Bytes(), []byte(want)) {
			t.Errorf("no answer contained %s: the case it stands for was not exercised", want)
		}
	}
}

func firstDifference(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
