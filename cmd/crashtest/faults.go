package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"adjarray/internal/core"
	"adjarray/internal/iofault"
	"adjarray/internal/serve"
	"adjarray/internal/stream"
	"adjarray/internal/wal"
)

// ---------------------------------------------------------------------
// Randomized disk-fault schedules
// ---------------------------------------------------------------------

// runFaultSchedules drives the -faults suite: `schedules` rounds of
// live ingest through a seed-driven iofault injector, all against ONE
// store directory so later rounds recover state shaped by earlier
// wedges. Each round opens the store clean (recovery itself is not
// attacked), arms a random schedule — EIO, ENOSPC, short writes, torn
// writes at a random rate with a small budget — and appends workload
// batches until the quota or a wedge.
//
// The contract under test, per round:
//
//   - An append refused by a storage fault fails typed
//     (stream.ErrReadOnly); anything else is a harness failure.
//   - After a wedge the durable boundary froze exactly at the last
//     acknowledged batch — no failed fsync advanced it — and the store
//     reports read-only.
//   - The wedge is sticky: the fault condition clearing (Clear) does
//     not un-wedge, and further appends still refuse.
//   - A clean reopen recovers bit-identically to the dense oracle over
//     at least every acknowledged batch.
func runFaultSchedules(root string, seed int64, schedules int, logf func(string, ...any)) error {
	ops, err := mustOps()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "faultstore")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	epoch := uint64(0)
	wedges, degradedOnly, faults := 0, 0, 0
	for i := 0; i < schedules; i++ {
		schedSeed := seed ^ int64(i+1)*0x9e3779b9
		rng := rand.New(rand.NewSource(schedSeed))
		inj := iofault.New()
		d, err := stream.Open(dir, ops, 1, stream.DurableOptions[float64]{
			FS: iofault.Wrap(iofault.OS, inj),
			WAL: wal.Options{
				Policy:       wal.SyncEveryAppend,
				SegmentBytes: 16 << 10, // force rotation inside the schedule
			},
			CheckpointEvery: 5,
		})
		if err != nil {
			return fmt.Errorf("schedule %d: clean open failed: %w", i, err)
		}
		// Armed only after open: the schedule attacks live ingest;
		// recovery is verified separately below, on a healthy disk.
		budget := 1 + rng.Intn(5)
		rate := 0.02 + rng.Float64()*0.08
		inj.ArmRandom(schedSeed, rate, budget,
			iofault.EIO, iofault.ENOSPC, iofault.ShortWrite, iofault.TornWrite)

		lastAcked := epoch
		quota := epoch + uint64(20+rng.Intn(30))
		var wedgeErr error
		for b := epoch + 1; b <= quota; b++ {
			if err := d.Append(batchEdges(seed, b)); err != nil {
				if !errors.Is(err, stream.ErrReadOnly) {
					d.Abort()
					return fmt.Errorf("schedule %d batch %d: append failed untyped: %v", i, b, err)
				}
				wedgeErr = err
				break
			}
			lastAcked = b
		}
		faults += inj.Injected()

		if wedgeErr != nil {
			wedges++
			if st := d.Durability()[0]; st.DurableEpoch != lastAcked {
				d.Abort()
				return fmt.Errorf("schedule %d: durable epoch %d after wedge, want last acked %d (a failed fsync advanced the durable boundary)",
					i, st.DurableEpoch, lastAcked)
			}
			if h, _ := d.StorageHealth(); h.State != stream.StorageReadOnly {
				d.Abort()
				return fmt.Errorf("schedule %d: storage state %v after wedge, want read-only", i, h.State)
			}
			// The disk "recovers" — and the wedge must not.
			inj.Clear()
			if err := d.Append(batchEdges(seed, quota+1)); !errors.Is(err, stream.ErrReadOnly) {
				d.Abort()
				return fmt.Errorf("schedule %d: post-wedge append on a healthy disk returned %v, want ErrReadOnly", i, err)
			}
			d.Abort()
		} else {
			if h, _ := d.StorageHealth(); h.State == stream.StorageDegraded {
				degradedOnly++ // a checkpoint fault degraded without wedging
			}
			inj.Clear()
			// Half the schedules exit gracefully, half crash-exit; the
			// clean reopen below must cope with both.
			if rng.Intn(2) == 0 {
				if err := d.Close(); err != nil {
					return fmt.Errorf("schedule %d: close on a healthy disk: %v", i, err)
				}
			} else {
				d.Abort()
			}
		}

		next, err := verifyRecovered(dir, seed, lastAcked)
		if err != nil {
			return fmt.Errorf("schedule %d (%d faults injected, wedged=%v): %w",
				i, inj.Injected(), wedgeErr != nil, err)
		}
		epoch = next
	}
	if wedges == 0 {
		return fmt.Errorf("no schedule wedged the store in %d rounds; raise the rate or budget", schedules)
	}
	logf("fault schedules done: %d rounds, %d faults injected, %d wedges, %d degraded-only, final epoch %d",
		schedules, faults, wedges, degradedOnly, epoch)
	return nil
}

// ---------------------------------------------------------------------
// Scripted degraded-mode serving
// ---------------------------------------------------------------------

// runDegradedServing is the serving half of the acceptance gate: a
// scripted fault wedges a served store read-only mid-traffic, and the
// front door must answer every read non-5xx throughout — ingest sheds
// 503 + Retry-After, reads keep serving the last good snapshot, and
// /healthz + /metrics report the state machine. Finally the store is
// reopened on the healthy disk and the acknowledged edge must have
// survived.
func runDegradedServing(dir string, seed int64, logf func(string, ...any)) error {
	inj := iofault.New()
	ing, err := core.NewIngest(core.IngestOptions{
		Semiring: "+.*",
		DataDir:  dir,
		Durable: stream.DurableOptions[float64]{
			WAL: wal.Options{Policy: wal.SyncEveryAppend},
			FS:  iofault.Wrap(iofault.OS, inj),
		},
	})
	if err != nil {
		return err
	}
	srv := serve.New(ing, serve.Options{})
	do := func(method, path, body string) (int, http.Header, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Header(), rec.Body.String()
	}

	// Healthy traffic: one acknowledged batch, read back.
	if code, _, body := do("POST", "/ingest", `{"edges":[{"src":"a","dst":"b"},{"src":"b","dst":"c"}]}`); code != http.StatusOK {
		return fmt.Errorf("healthy ingest: code %d body %s", code, body)
	}
	if code, _, _ := do("GET", "/at?src=a&dst=b", ""); code != http.StatusOK {
		return fmt.Errorf("healthy read: code %d", code)
	}

	// Script the fault: the next WAL fsync fails once.
	inj.Arm(iofault.Rule{Op: iofault.OpSync, Path: "wal-", Kind: iofault.EIO, Count: 1})
	code, hdr, _ := do("POST", "/ingest", `{"edges":[{"src":"c","dst":"d"}]}`)
	if code != http.StatusServiceUnavailable {
		return fmt.Errorf("ingest over failed fsync: code %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		return fmt.Errorf("503 without a Retry-After hint")
	}
	inj.Clear() // disk healthy again; the wedge must hold regardless

	// Every read endpoint answers non-5xx throughout read-only mode.
	for _, path := range []string{
		"/at?src=a&dst=b", "/row?src=a", "/triples", "/bfs?src=a",
		"/sssp?src=a", "/stats", "/healthz", "/metrics",
	} {
		if code, _, body := do("GET", path, ""); code >= 500 {
			return fmt.Errorf("GET %s in read-only mode: code %d body %s", path, code, body)
		}
	}
	if code, _, _ := do("POST", "/ingest", `{"edges":[{"src":"e","dst":"f"}]}`); code != http.StatusServiceUnavailable {
		return fmt.Errorf("ingest after wedge on a healthy disk: code %d, want 503", code)
	}
	if _, _, body := do("GET", "/healthz", ""); !strings.Contains(body, `"storage":"read-only"`) || !strings.Contains(body, `"ok":true`) {
		return fmt.Errorf("/healthz in read-only mode: %s", body)
	}
	if _, _, body := do("GET", "/metrics", ""); !strings.Contains(body, "adjserve_storage_state 2") {
		return fmt.Errorf("/metrics missing adjserve_storage_state 2")
	}

	// Shut down (the close error IS the wedge) and reopen clean: the
	// acknowledged batch survived.
	ing.Close() //adjlint:ignore syncerr the store is wedged by design; recovery is verified below
	ops, err := mustOps()
	if err != nil {
		return err
	}
	d, err := stream.Open(dir, ops, 1, stream.DurableOptions[float64]{})
	if err != nil {
		return fmt.Errorf("reopen after degraded serving: %w", err)
	}
	defer d.Close() //adjlint:ignore syncerr read-only recovery probe; nothing was appended to lose
	snap, err := d.Snapshot()
	if err != nil {
		return err
	}
	if v, ok := snap.Adjacency.At("a", "b"); !ok || v != 1 {
		return fmt.Errorf("acked edge a->b lost across reopen (value %v stored %v)", v, ok)
	}
	logf("degraded serving: reads stayed non-5xx through the wedge; acked data recovered (epoch %d)", d.Durability()[0].Epoch)
	return nil
}
