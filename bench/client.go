package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// load is what a set of connections observed while replaying lanes.
// Latencies are send → whole response read; a failed op has none.
type load struct {
	lat       [numKinds][]time.Duration
	respBytes [numKinds]int64
	visible   []time.Duration // ingest send → read-your-write /at answered
	unitLat   []time.Duration // sum of a unit's request latencies
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
	acked     []unit // units whose every ingest was acknowledged
}

const maxErrsKept = 8

func (l *load) fail(err error) {
	l.failed++
	if len(l.errs) < maxErrsKept {
		l.errs = append(l.errs, err.Error())
	}
}

func (l *load) merge(o *load) {
	for k := range l.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
		l.respBytes[k] += o.respBytes[k]
	}
	l.visible = append(l.visible, o.visible...)
	l.unitLat = append(l.unitLat, o.unitLat...)
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < maxErrsKept {
			l.errs = append(l.errs, e)
		}
	}
	l.acked = append(l.acked, o.acked...)
}

// reads is how many non-ingest requests completed.
func (l *load) reads() int {
	n := 0
	for k := opKind(0); k < numKinds; k++ {
		if k.isRead() {
			n += len(l.lat[k])
		}
	}
	return n
}

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// conn is one closed-loop client: its own transport, so exactly one TCP
// connection, and the next request is sent only once the previous
// answer has been read.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole answer. The returned body is
// valid until the next call.
func (c *conn) do(rq *request) ([]byte, time.Duration, error) {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	req, err := http.NewRequest(rq.Method, c.base+rq.Path, body)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		// 429 and 503 are the server shedding; on these workloads that
		// is a failure like any other status but 200.
		return nil, 0, fmt.Errorf("%s %s: %s: %.80s", rq.Method, rq.Path, resp.Status, c.buf.Bytes())
	}
	return c.buf.Bytes(), d, nil
}

// at asks for one cell outside any script (the end-of-run check).
func (c *conn) at(src, dst string) (atAnswer, error) {
	rq := getAt(src, dst)
	body, _, err := c.do(&rq)
	if err != nil {
		return atAnswer{}, err
	}
	var ans atAnswer
	err = json.Unmarshal(body, &ans)
	return ans, err
}

// runUnit sends a unit's requests back to back and records them in l.
func (c *conn) runUnit(u unit, v *verifier, l *load) {
	var sum time.Duration
	var ingestSent time.Time
	ok := true
	for i := range u {
		rq := &u[i]
		l.attempted++
		sent := time.Now()
		body, d, err := c.do(rq)
		if err == nil {
			err = v.check(rq, body)
		}
		if err != nil {
			l.fail(err)
			ok = false
			continue
		}
		l.lat[rq.Kind] = append(l.lat[rq.Kind], d)
		l.respBytes[rq.Kind] += int64(len(body))
		sum += d
		switch {
		case rq.Kind == opIngest:
			ingestSent = sent
		case rq.ReadYourWrite && !ingestSent.IsZero():
			l.visible = append(l.visible, sent.Add(d).Sub(ingestSent))
			ingestSent = time.Time{}
		}
	}
	if ok {
		l.unitLat = append(l.unitLat, sum)
		l.acked = append(l.acked, u)
	}
}

// replay drives lanes with the given number of connections: connection
// c pulls the next unit of lane c mod len(lanes) until that lane is
// empty. It returns once every connection has finished.
func replay(base string, lanes [][]unit, conns int, v *verifier) *load {
	cursors := make([]atomic.Int64, len(lanes))
	parts := make([]*load, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < conns; ci++ {
		parts[ci] = &load{}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			lane := ci % len(lanes)
			for {
				i := int(cursors[lane].Add(1)) - 1
				if i >= len(lanes[lane]) {
					return
				}
				c.runUnit(lanes[lane][i], v, parts[ci])
			}
		}(ci)
	}
	wg.Wait()
	total := &load{wall: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
