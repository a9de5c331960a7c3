package main

import (
	"bytes"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"runtime/trace"
	"sync"

	"adjarray/internal/obs"
)

// debugMux is what -debug-addr serves: the pprof handlers, a runtime/trace
// of a window the caller opens and closes, and reg's exposition with the
// runtime's own gauges added to it. It has no admission control and no
// part in any request path; reg may be nil (no front door), in which case
// the gauges get a registry of their own.
func debugMux(reg *obs.Registry) http.Handler {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	registerRuntimeGauges(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // heap, goroutine, allocs, block, mutex, …
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())

	// One trace at a time, kept in memory until it is stopped: the window
	// is the caller's — a preload, one benchmark script — not a duration
	// guessed beforehand (that form is /debug/pprof/trace?seconds=N).
	var mu sync.Mutex
	var buf bytes.Buffer
	mux.HandleFunc("/debug/trace/start", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if err := trace.Start(&buf); err != nil { // one is running: its buffer is left alone
			http.Error(w, err.Error(), http.StatusConflict)
		}
	})
	mux.HandleFunc("/debug/trace/stop", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if !trace.IsEnabled() {
			http.Error(w, "no trace is running", http.StatusConflict)
			return
		}
		trace.Stop()
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(buf.Bytes()) // a client that went away loses its trace
		buf = bytes.Buffer{}
	})
	return mux
}

// registerRuntimeGauges bridges five runtime/metrics samples into reg,
// each read when a scrape asks for it.
func registerRuntimeGauges(reg *obs.Registry) {
	read := func(name string) metrics.Value {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return s[0].Value
	}
	count := func(name string) func() float64 {
		return func() float64 {
			if v := read(name); v.Kind() == metrics.KindUint64 {
				return float64(v.Uint64())
			}
			return 0
		}
	}
	reg.CounterFunc("adjserve_runtime_gc_pause_cpu_seconds_total",
		"Estimated CPU seconds the process spent paused by the collector (/cpu/classes/gc/pause:cpu-seconds).",
		func() float64 {
			if v := read("/cpu/classes/gc/pause:cpu-seconds"); v.Kind() == metrics.KindFloat64 {
				return v.Float64()
			}
			return 0
		})
	reg.GaugeFunc("adjserve_runtime_heap_goal_bytes",
		"Heap size the collector aims to finish its current cycle at (/gc/heap/goal:bytes).",
		count("/gc/heap/goal:bytes"))
	reg.GaugeFunc("adjserve_runtime_heap_live_bytes",
		"Heap the last collection found reachable (/gc/heap/live:bytes).",
		count("/gc/heap/live:bytes"))
	reg.GaugeFunc("adjserve_runtime_goroutines",
		"Live goroutines (/sched/goroutines:goroutines).",
		count("/sched/goroutines:goroutines"))
	reg.GaugeFunc("adjserve_runtime_sched_latency_p99_seconds",
		"99th percentile, since start, of the time a runnable goroutine waited to run (/sched/latencies:seconds).",
		func() float64 {
			v := read("/sched/latencies:seconds")
			if v.Kind() != metrics.KindFloat64Histogram {
				return 0
			}
			h := v.Float64Histogram()
			var total, seen uint64
			for _, c := range h.Counts {
				total += c
			}
			for i, c := range h.Counts {
				if seen += c; seen*100 >= total*99 && total > 0 {
					return h.Buckets[i+1] // the bucket's upper bound
				}
			}
			return 0
		})
}
