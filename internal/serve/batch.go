package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

// maxBatchBody bounds the request body; 256 ops of point reads fit in
// a few KB, so 1 MiB is generous without letting one client stage an
// arbitrarily large allocation.
const maxBatchBody = 1 << 20

// handleBatch executes many query ops against ONE pinned snapshot — the
// epoch-vector pin and the graph-cache lookup are paid once per request
// instead of once per op, and nothing is gathered: each op goes through
// prepare, as its GET does, bound to the batch's pins. Per-op failures
// are reported inline (an unknown vertex in op 3 must not void the other
// 99 answers); request-level failures (bad JSON, too many ops) fail the
// whole request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body: {\"ops\":[{\"op\":\"at\",...},...]}", http.StatusMethodNotAllowed)
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &req); err != nil {
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "batch has no ops", http.StatusBadRequest)
		return
	}
	if len(req.Ops) > s.opt.MaxBatchOps {
		http.Error(w, fmt.Sprintf("batch of %d ops exceeds the server maximum %d", len(req.Ops), s.opt.MaxBatchOps), http.StatusBadRequest)
		return
	}

	pins, epochs, err := s.pinShards()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	p := &pinned{s: s, pins: pins, epochs: epochs}
	s.writeAnswer(w, func(a *answer, b []byte) []byte {
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(len(req.Ops)), 10)
		b = append(b, ',')
		b = stamp{epochs: epochs}.appendTo(b)
		b = append(b, `"results":[`...)
		for i, op := range req.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			if q, err := s.prepare(op, p); err != nil {
				b = appendOpError(b, op.Op, err)
			} else {
				b = q.render(a, b, stamp{op: op.Op})
			}
			if b = a.spill(b); a.err != nil {
				return b // the client is gone: run no more ops
			}
		}
		return append(b, `]}`...)
	})
}

// appendOpError reports one op's failure in its place among the
// results: error, op, status — the status the single-op endpoint would
// have answered with.
func appendOpError(b []byte, op string, err error) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, err.Error())
	b = append(b, `,"op":`...)
	b = appendJSONString(b, op)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(opStatus(err)), 10)
	return append(b, '}')
}
