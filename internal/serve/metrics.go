package serve

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adjarray/internal/core"
	"adjarray/internal/keys"
	"adjarray/internal/obs"
	"adjarray/internal/stream"
)

// metrics is the server's observability surface. Instrument-backed
// series (latencies, shed counts) are fed on the request path; view
// positions that the ingest owns (epochs, WAL lag, edge counts) are
// exported as pull-time callbacks so scraping never duplicates state.
type metrics struct {
	reg *obs.Registry

	inflight     *obs.Gauge
	encodeErrors *obs.Counter
	writeErrors  *obs.Counter

	cacheHits     *obs.Counter
	cacheRebuilds *obs.Counter
	cacheStale    *obs.Counter

	ingestShed *obs.Counter

	// Point reads answered beside an unfolded log suffix, and those that
	// found it past the threshold and folded first; one on a shard folded
	// up to its log counts as neither.
	pointSuffix, pointFolded *obs.Counter

	// Snapshot epoch age: how long since the served epoch vector last
	// advanced — the staleness a reader observes, as distinct from WAL
	// lag (what a crash would lose).
	epochMu     sync.Mutex
	lastEpochs  []int
	lastAdvance time.Time

	// Checkpoints are written by the store's own goroutines; their
	// durations reach the histogram when a scrape sees the count move.
	ckptMu   sync.Mutex
	ckptSeen []uint64
	ckptHist []*obs.Histogram

	// The store's positions are pulled at scrape time — once per scrape:
	// GET /metrics samples them before the exposition runs and the
	// pull-time callbacks below all read that sample.
	store  *stream.Store[float64]
	sample atomic.Pointer[storeSample]
}

// storeSample is the store's counters as one scrape sees them. Taking it
// holds each shard's view lock briefly (the cost of one /stats request)
// and never the partition lock, so a scrape does not wait on a
// checkpoint.
type storeSample struct {
	stats stream.StoreStats
	durs  []stream.DurabilityStats
}

func (m *metrics) takeSample() *storeSample {
	return &storeSample{stats: m.store.Stats(), durs: m.store.Durability()}
}

// beginScrape samples the store for the exposition about to run and
// feeds the checkpoint histograms from it; endScrape drops the sample.
func (m *metrics) beginScrape() {
	sm := m.takeSample()
	m.observeCheckpoints(sm.durs)
	m.sample.Store(sm)
}

func (m *metrics) endScrape() { m.sample.Store(nil) }

// sampled returns the running scrape's sample. Outside one — the
// registry exposed by a handler other than GET /metrics, or a second
// scrape ending first — every callback takes its own.
func (m *metrics) sampled() *storeSample {
	if sm := m.sample.Load(); sm != nil {
		return sm
	}
	return m.takeSample()
}

func newMetrics(reg *obs.Registry, ing *core.Ingest) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	store := ing.Store()
	m := &metrics{reg: reg, lastAdvance: time.Now(), store: store}
	m.inflight = reg.Gauge("adjserve_http_inflight_requests",
		"Requests currently being served.")
	m.encodeErrors = reg.Counter("adjserve_response_encode_errors_total",
		"Responses whose JSON encoding failed before any byte was written.")
	m.writeErrors = reg.Counter("adjserve_response_write_errors_total",
		"Encoded responses the client connection refused (disconnects).")
	m.cacheHits = reg.Counter("adjserve_graph_cache_hits_total",
		"Algorithm queries answered from the per-epoch cached Graph.")
	m.cacheRebuilds = reg.Counter("adjserve_graph_cache_rebuilds_total",
		"Graph rebuilds after the snapshot epoch vector advanced.")
	m.cacheStale = reg.Counter("adjserve_graph_cache_stale_serves_total",
		"Queries that pinned an older snapshot than the cached Graph and were served uncached.")
	m.ingestShed = reg.Counter("adjserve_ingest_shed_readonly_total",
		"POST /ingest requests answered 503 because the durable store is read-only.")
	const pointHelp = "Point reads (/at, /row) that met unfolded edges on the owning shard: answered over the suffix, or past the fold threshold and folded first."
	m.pointSuffix = reg.Counter("adjserve_point_reads_total", pointHelp, obs.Label{Name: "path", Value: "suffix"})
	m.pointFolded = reg.Counter("adjserve_point_reads_total", pointHelp, obs.Label{Name: "path", Value: "folded"})
	// Storage-health state machine, pulled at scrape time (lock-free
	// reads). State is the worst shard (0 ok, 1 degraded, 2 read-only);
	// faults sum across shards over WAL appends, fsyncs, and checkpoint
	// attempts.
	reg.GaugeFunc("adjserve_storage_state",
		"Storage health: 0 ok, 1 degraded (checkpoints failing), 2 read-only (WAL wedged; worst shard).",
		func() float64 { agg, _ := ing.StorageHealth(); return float64(agg.State) })
	reg.CounterFunc("adjserve_storage_faults_total",
		"Storage faults observed across WAL writes, fsyncs, and checkpoints (all shards).",
		func() float64 { agg, _ := ing.StorageHealth(); return float64(agg.Faults) })
	reg.GaugeFunc("adjserve_snapshot_epoch_age_seconds",
		"Seconds since the served snapshot epoch vector last advanced.",
		func() float64 {
			m.epochMu.Lock()
			defer m.epochMu.Unlock()
			return time.Since(m.lastAdvance).Seconds()
		})

	// Ingest positions, from the scrape's sample of the store.
	registerInternerGauges(reg, store.InternerStats)
	reg.CounterFunc("adjserve_ingest_edges_total",
		"Edges ever applied to the store (rate() of this is the ingest rate).",
		func() float64 { return float64(m.sampled().stats.Edges) })
	reg.GaugeFunc("adjserve_adjacency_nnz",
		"Stored adjacency entries across shards.",
		func() float64 { return float64(m.sampled().stats.AdjNNZ) })
	reg.GaugeFunc("adjserve_pending_entries",
		"Edges in the log not yet folded into the adjacency: the next whole-array read folds them (all edges, on a server nobody has read); under point reads alone it stays non-zero, bounded by max(4096, nnz/8) per shard.",
		func() float64 { return float64(m.sampled().stats.Pending) })
	for i := 0; i < store.Shards(); i++ {
		shard := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		reg.CounterFunc("adjserve_shard_epoch",
			"Batches applied per shard (the consistency vector).",
			func() float64 { return float64(m.sampled().stats.PerShard[i].Epoch) }, shard)
		// Vertex-universe growth is paid in the fold, not in the append:
		// these two are where an ingest of new vertices shows.
		reg.CounterFunc("adjserve_view_folds_total",
			"Folds run per shard: one per whole-array read or checkpoint that found unfolded edges, or point read that found them past the threshold.",
			func() float64 { return float64(m.sampled().stats.PerShard[i].Folds) }, shard)
		reg.CounterFunc("adjserve_view_fold_seconds_total",
			"Seconds spent in folds per shard: universe sync, fold of the unfolded log suffix, merge into the adjacency.",
			func() float64 { return time.Duration(m.sampled().stats.PerShard[i].FoldNanos).Seconds() }, shard)
		reg.GaugeFunc("adjserve_wal_lag_batches",
			"Batches a crash right now would lose, per shard (0 without a WAL).",
			func() float64 { return float64(m.sampled().durs[i].WALLag) }, shard)
		reg.GaugeFunc("adjserve_checkpoint_seq",
			"WAL seq covered by the shard's newest on-disk checkpoint.",
			func() float64 { return float64(m.sampled().durs[i].CheckpointSeq) }, shard)
		reg.CounterFunc("adjserve_checkpoints_total",
			"Checkpoints the shard has written since the process started.",
			func() float64 { return float64(m.sampled().durs[i].Checkpoints) }, shard)
		reg.GaugeFunc("adjserve_checkpoint_bytes",
			"Size of the last checkpoint the shard wrote.",
			func() float64 { return float64(m.sampled().durs[i].CheckpointBytes) }, shard)
		m.ckptHist = append(m.ckptHist, reg.Histogram("adjserve_checkpoint_seconds",
			"Time from pinning the view to the published file, of the last checkpoint each scrape found new.",
			obs.DefBuckets, shard))
	}
	m.ckptSeen = make([]uint64, store.Shards())
	return m
}

// observeCheckpoints feeds the checkpoint histograms from the store's
// durability counters. It runs before every exposition: a shard whose
// count moved since the last one contributes its last checkpoint's
// duration (earlier ones in the same interval are not seen).
func (m *metrics) observeCheckpoints(durs []stream.DurabilityStats) {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	for i, d := range durs {
		if d.Checkpoints > m.ckptSeen[i] {
			m.ckptSeen[i] = d.Checkpoints
			m.ckptHist[i].Observe(d.CheckpointDuration.Seconds())
		}
	}
}

// registerInternerGauges exports the key-interner footprint: the slab
// is the dominant steady-state memory of a long-lived ingest (key bytes
// are never evicted), so operators need its growth rate on /metrics,
// not just in heap profiles. Lock-free on the views — the interners
// synchronize internally.
func registerInternerGauges(reg *obs.Registry, stats func() (out, in keys.InternerStats)) {
	for _, side := range []struct {
		label obs.Label
		pick  func(out, in keys.InternerStats) keys.InternerStats
	}{
		{obs.Label{Name: "side", Value: "out"}, func(out, _ keys.InternerStats) keys.InternerStats { return out }},
		{obs.Label{Name: "side", Value: "in"}, func(_, in keys.InternerStats) keys.InternerStats { return in }},
	} {
		pick := side.pick
		reg.GaugeFunc("adjserve_interner_slab_bytes",
			"Key bytes held by the interner slab (append-only; never shrinks).",
			func() float64 { return float64(pick(stats()).SlabBytes) }, side.label)
		reg.GaugeFunc("adjserve_interner_table_slots",
			"Open-addressed interner table capacity.",
			func() float64 { return float64(pick(stats()).TableSlot) }, side.label)
	}
	reg.GaugeFunc("adjserve_interner_keys",
		"Distinct keys interned across both sides.",
		func() float64 {
			out, in := stats()
			return float64(out.Keys + in.Keys)
		})
}

// observeEpochs records snapshot pins so the epoch-age gauge knows
// when the served vector last advanced.
func (m *metrics) observeEpochs(epochs []int) {
	m.epochMu.Lock()
	if !slices.Equal(m.lastEpochs, epochs) {
		m.lastEpochs = slices.Clone(epochs)
		m.lastAdvance = time.Now()
	}
	m.epochMu.Unlock()
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route with the latency histogram, request
// counter, and in-flight gauge. The label is the registered route
// pattern, never the raw URL, so series cardinality is bounded by the
// route table.
func (m *metrics) instrument(path string, next http.Handler) http.Handler {
	hist := m.reg.Histogram("adjserve_http_request_seconds",
		"Wall time per request by endpoint.", obs.DefBuckets,
		obs.Label{Name: "path", Value: path})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		m.inflight.Add(-1)
		hist.Observe(time.Since(start).Seconds())
		// Counter() dedups on name+labels: one mutexed map lookup per
		// request, the price of not pre-declaring every status code.
		m.reg.Counter("adjserve_http_requests_total",
			"Requests served by endpoint and status code.",
			obs.Label{Name: "path", Value: path},
			obs.Label{Name: "code", Value: strconv.Itoa(sw.code)}).Inc()
	})
}
