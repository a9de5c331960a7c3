package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"adjarray/internal/stream"
)

// maxIngestBody bounds the decoded request body; a batch bigger than
// this should arrive as several requests (the per-batch edge count is
// bounded separately by Options.MaxIngestEdges).
const maxIngestBody = 8 << 20

// ingestEdge is the wire form of one edge. Out/In are pointers so an
// explicitly provided weight — including the algebra's Zero — is
// distinguishable from an omitted one (which ingests as the algebra's
// One, the unweighted convention).
type ingestEdge struct {
	Key string   `json:"key"`
	Src string   `json:"src"`
	Dst string   `json:"dst"`
	Out *float64 `json:"out"`
	In  *float64 `json:"in"`
}

// handleIngest is the HTTP write path: POST /ingest appends one batch
// of edges atomically through core.Ingest.AppendBatch (bypassing the
// process's stdin accumulator, so HTTP and stream ingest compose).
//
// Degraded-mode contract: when the durable store has gone read-only
// after a storage fault (a wedged WAL — see internal/stream), the
// append is refused and the client gets 503 + Retry-After, exactly as
// admission control sheds overload with 429. Read endpoints are
// unaffected and keep serving the last good snapshot. On a sharded
// store the refusal is per shard: a batch routed entirely to healthy
// shards still succeeds while a sick shard's batches shed, which is
// why this handler maps the append error instead of pre-checking the
// aggregate health.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Edges []ingestEdge `json:"edges"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := decodeOne(json.NewDecoder(r.Body), &req); err != nil {
		http.Error(w, "decode request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Edges) == 0 {
		http.Error(w, `want {"edges":[{"src":"a","dst":"b"},...]}`, http.StatusBadRequest)
		return
	}
	if len(req.Edges) > s.opt.MaxIngestEdges {
		http.Error(w, fmt.Sprintf("batch of %d edges exceeds the server maximum %d",
			len(req.Edges), s.opt.MaxIngestEdges), http.StatusRequestEntityTooLarge)
		return
	}
	batch := make([]stream.Edge[float64], len(req.Edges))
	for i, e := range req.Edges {
		if e.Src == "" || e.Dst == "" {
			http.Error(w, fmt.Sprintf("edge %d: src and dst are required", i), http.StatusBadRequest)
			return
		}
		batch[i] = stream.Edge[float64]{Key: e.Key, Src: e.Src, Dst: e.Dst}
		if e.Out != nil {
			batch[i].Out, batch[i].HasOut = *e.Out, true
		}
		if e.In != nil {
			batch[i].In, batch[i].HasIn = *e.In, true
		}
	}
	if err := s.ing.AppendBatch(batch); err != nil {
		if errors.Is(err, stream.ErrReadOnly) {
			s.met.ingestShed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opt.RetryAfter)))
			http.Error(w, "storage is read-only; ingest shed, reads still served: "+err.Error(),
				http.StatusServiceUnavailable)
			return
		}
		// Anything else is the batch's own fault (key discipline, failed
		// associativity guard) — the view rejected it atomically.
		http.Error(w, "append: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.writeJSON(w, map[string]any{"appended": len(batch)})
}

// decodeOne decodes a request body that must be one JSON value: anything
// after it but white space is an error naming the offset where it starts
// — a second value in the body would otherwise be acknowledged with the
// first and never read.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value, at byte %d", end)
	}
	return nil
}
