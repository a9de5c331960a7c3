package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Spans of one request share Req; Parent is the
// span that caused this one, -1 for the request's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the part of a span's name before the first dot: the module
// the time is charged to. Root spans are named after their depth
// ("L0/at"), which makes their self time the benchmark's own glue.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return "bench"
}

// reqInfo says which scripted request a request id replays, and how.
type reqInfo struct {
	Depth string // "L0" socket, "L1" ServeHTTP, "L2" direct calls, or a twin's name
	Index int    // position in the replayed script
	Kind  opKind
}

// tracer keeps every span in memory until the run is over. The replay
// is one goroutine, so "the current span" is a single stack; only the
// filesystem seam reports from other goroutines (the background
// checkpoint), and it names its parent itself.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  []reqInfo
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a request id.
func (t *tracer) request(depth string, index int, kind opKind) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs = append(t.reqs, reqInfo{depth, index, kind})
	return int32(len(t.reqs) - 1)
}

// span times fn as a child of the span running on the replay goroutine
// (a root when there is none).
func (t *tracer) span(req int32, name string, fn func()) time.Duration {
	t.mu.Lock()
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	t.stack = append(t.stack, id)
	t.mu.Unlock()

	start := time.Now()
	fn()
	end := time.Now()

	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
	return end.Sub(start)
}

// current is the innermost open span of the replay goroutine and its
// request, or -1, -1.
func (t *tracer) current() (id, req int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		id = t.stack[n-1]
		return id, t.spans[id].Req
	}
	return -1, -1
}

// leaf records an already-timed span under an explicit parent.
func (t *tracer) leaf(parent, req int32, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// write stores the spans and the request table as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Requests []reqInfo `json:"requests"`
		Spans    []span    `json:"spans"`
	}{t.reqs, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tree is the span forest indexed for analysis.
type tree struct {
	spans    []span
	reqs     []reqInfo
	children map[int32][]int32
	roots    map[int32][]int32 // request id → its root spans
}

func (t *tracer) tree() *tree {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &tree{spans: t.spans, reqs: t.reqs, children: map[int32][]int32{}, roots: map[int32][]int32{}}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			tr.children[s.Parent] = append(tr.children[s.Parent], s.ID)
		} else {
			tr.roots[s.Req] = append(tr.roots[s.Req], s.ID)
		}
	}
	return tr
}

// self is a span's duration minus its children's.
func (tr *tree) self(id int32) time.Duration {
	d := tr.spans[id].dur()
	for _, c := range tr.children[id] {
		d -= tr.spans[c].dur()
	}
	return d
}

// wellFormed checks one request: exactly one root, every child inside
// its parent, and children summing to no more than the parent.
func (tr *tree) wellFormed(req int32) error {
	if n := len(tr.roots[req]); n != 1 {
		return fmt.Errorf("request %d has %d roots", req, n)
	}
	var walk func(id int32) error
	walk = func(id int32) error {
		p := tr.spans[id]
		var sum time.Duration
		for _, c := range tr.children[id] {
			s := tr.spans[c]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %q [%d,%d] leaves its parent %q [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			sum += s.dur()
			if err := walk(c); err != nil {
				return err
			}
		}
		if sum > p.dur() {
			return fmt.Errorf("children of %q sum to %v, more than its %v", p.Name, sum, p.dur())
		}
		return nil
	}
	return walk(tr.roots[req][0])
}

// wellFormedShare is the share of requests whose span tree is well
// formed, with the first violation found.
func (tr *tree) wellFormedShare() (float64, error) {
	var first error
	good := 0
	for req := range tr.reqs {
		if err := tr.wellFormed(int32(req)); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		good++
	}
	if len(tr.reqs) == 0 {
		return 1, nil
	}
	return float64(good) / float64(len(tr.reqs)), first
}

// layerSelf sums, for one request, the self time of its spans by layer.
func (tr *tree) layerSelf(req int32) map[string]time.Duration {
	out := map[string]time.Duration{}
	var walk func(id int32)
	walk = func(id int32) {
		out[tr.spans[id].layer()] += tr.self(id)
		for _, c := range tr.children[id] {
			walk(c)
		}
	}
	for _, r := range tr.roots[req] {
		walk(r)
	}
	return out
}

// named returns the durations of every span with the given name.
func (tr *tree) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// rootDur is the duration of the request's root span.
func (tr *tree) rootDur(req int32) time.Duration {
	return tr.spans[tr.roots[req][0]].dur()
}

// byDepth indexes request ids: depth → script index → request id.
func (tr *tree) byDepth() map[string]map[int]int32 {
	out := map[string]map[int]int32{}
	for id, r := range tr.reqs {
		if out[r.Depth] == nil {
			out[r.Depth] = map[int]int32{}
		}
		out[r.Depth][r.Index] = int32(id)
	}
	return out
}

// breakdown is one workload's "where the time goes" table: per request
// class, the median of each layer's self time, with the layers between
// depths taken as the median of the per-request differences.
type breakdown struct {
	Layers []string // column order
	Rows   []breakdownRow
	Total  breakdownRow // count-weighted over the classes
}

type breakdownRow struct {
	Class string
	N     int
	L0    float64            // median socket-to-socket ms
	Self  map[string]float64 // layer → median self ms
	Sum   float64
}

func (b *breakdown) print(workload string) {
	fmt.Printf("\nwhere the time goes — %s (per request, median ms; sum/L0 says how well the layers add up)\n", workload)
	fmt.Printf("  %-9s %6s %9s", "class", "n", "L0")
	for _, l := range b.Layers {
		fmt.Printf(" %9s", l)
	}
	fmt.Printf(" %9s %7s\n", "sum", "sum/L0")
	row := func(r breakdownRow) {
		fmt.Printf("  %-9s %6d %9.3f", r.Class, r.N, r.L0)
		for _, l := range b.Layers {
			fmt.Printf(" %9.3f", r.Self[l])
		}
		fmt.Printf(" %9.3f %6.0f%%\n", r.Sum, 100*r.Sum/r.L0)
	}
	for _, r := range b.Rows {
		row(r)
	}
	row(b.Total)
	fmt.Printf("  %-9s %6s %9s", "share", "", "")
	for _, l := range b.Layers {
		fmt.Printf(" %8.1f%%", 100*b.Total.Self[l]/b.Total.L0)
	}
	fmt.Println()
}

func (b *breakdown) finish() {
	b.Total = breakdownRow{Class: "all", Self: map[string]float64{}}
	for i := range b.Rows {
		r := &b.Rows[i]
		for _, l := range b.Layers {
			r.Sum += r.Self[l]
			b.Total.Self[l] += float64(r.N) * r.Self[l]
		}
		b.Total.N += r.N
		b.Total.L0 += float64(r.N) * r.L0
		b.Total.Sum += float64(r.N) * r.Sum
	}
	n := float64(max(b.Total.N, 1))
	b.Total.L0 /= n
	b.Total.Sum /= n
	for _, l := range b.Layers {
		b.Total.Self[l] /= n
	}
}

func medianDur(ds []time.Duration, unit func(time.Duration) float64) float64 {
	return median(durations(ds, unit))
}
