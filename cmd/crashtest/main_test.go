package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adjarray/internal/stream"
)

// TestMain doubles as the child entry point: the harness re-execs
// os.Executable(), which under `go test` is the test binary itself, so
// child mode must be intercepted before the test runner parses flags.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "crashtest child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestKillAndRecover is the acceptance gate: random SIGKILLs against a
// live ingester, recovery verified bit-identical to the dense oracle
// over everything acknowledged durable. At 3 shards a kill can land
// mid-scatter, so recovery must serve exactly the union of per-shard
// prefixes and the next child run must repair the partial global batch
// before continuing. Full mode runs the iterations the acceptance
// criteria name; -short keeps CI's race run inside its budget.
func TestKillAndRecover(t *testing.T) {
	for _, tc := range []struct {
		shards, iters, short int
		seed                 int64
	}{
		{shards: 1, iters: 50, short: 10, seed: 7},
		{shards: 3, iters: 25, short: 8, seed: 11},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			cfg := harnessConfig{Iters: tc.iters, Seed: tc.seed, Dir: t.TempDir(), Shards: tc.shards}
			if testing.Short() {
				cfg.Iters = tc.short
			}
			if err := runHarness(cfg, t.Logf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// writeStore appends the workload's batches 1..batches to a fresh store
// and returns its per-shard epoch vector. It ends with Sync and Abort,
// not Close: no final checkpoint, so every shard keeps a WAL tail.
func writeStore(t *testing.T, dir string, seed int64, shards int, batches uint64) []int {
	t.Helper()
	ops, err := mustOps()
	if err != nil {
		t.Fatal(err)
	}
	sv, err := stream.Open(dir, ops, shards, stream.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Abort()
	for b := uint64(1); b <= batches; b++ {
		if err := sv.Append(batchEdges(seed, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Sync(); err != nil {
		t.Fatal(err)
	}
	return append([]int{}, sv.Stats().Epochs...)
}

// TestVerifierCatchesLoss holds the verifier itself to its two refusals:
// a store that covers fewer batches than were acknowledged is data loss,
// and a store holding an edge the stream never wrote diverges from the
// oracle.
func TestVerifierCatchesLoss(t *testing.T) {
	const seed, batches = 5, 12
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, seed, shards, batches)
			if _, covered, err := verifyRecovered(dir, seed, shards, batches); err != nil || covered != batches {
				t.Fatalf("intact store: covered %d, err %v; want %d and nil", covered, err, batches)
			}
			if _, _, err := verifyRecovered(dir, seed, shards, batches+1); err == nil || !strings.Contains(err.Error(), "LOST ACKNOWLEDGED DATA") {
				t.Fatalf("one batch past the store: err %v, want the loss error", err)
			}

			// One edge outside the stream: its key ascends past every
			// batch's, and its product 0.25 is no sum of the stream's
			// integer products, so no regenerated batch can explain it.
			ops, err := mustOps()
			if err != nil {
				t.Fatal(err)
			}
			sv, err := stream.Open(dir, ops, shards, stream.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sv.Append([]stream.Edge[float64]{stream.Weighted("k999999999", "s00", "t00", 0.5, 0.5)}); err != nil {
				sv.Abort()
				t.Fatal(err)
			}
			if err := sv.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := verifyRecovered(dir, seed, shards, batches); err == nil || !strings.Contains(err.Error(), "diverges from the dense oracle") {
				t.Fatalf("store with a foreign edge: err %v, want the divergence error", err)
			}
		})
	}
}

// lastSegment returns the path of the newest WAL segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	last := matches[0]
	for _, m := range matches[1:] {
		if m > last {
			last = m
		}
	}
	return last
}

// TestTornShardDirectory kills exactly one shard directory of a cleanly
// written 3-shard store (its newest WAL segment torn). Recovery must
// repair that shard to its verified prefix — epoch exactly one below its
// pre-damage value, siblings untouched — and serve the gathered
// adjacency bit-identical to the oracle over the now-uneven prefixes.
// The harness's catch-up then restores the lost sub-batch from the
// deterministic stream and the store verifies at full coverage again.
func TestTornShardDirectory(t *testing.T) {
	const seed, shards, batches, victim = 11, 3, 14, 1
	dir := t.TempDir()
	before := writeStore(t, dir, seed, shards, batches)

	seg := lastSegment(t, filepath.Join(dir, fmt.Sprintf("shard-%03d", victim)))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	epochs, _, err := verifyRecovered(dir, seed, shards, 0)
	if err != nil {
		t.Fatalf("torn shard: %v", err)
	}
	for s := range epochs {
		want := before[s]
		if s == victim {
			want--
		}
		if epochs[s] != want {
			t.Fatalf("torn shard: epoch vector %v after damage, want %v with shard %d one back", epochs, before, victim)
		}
	}

	ops, err := mustOps()
	if err != nil {
		t.Fatal(err)
	}
	sv, err := stream.Open(dir, ops, shards, stream.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catchUp(sv, seed); err != nil {
		sv.Abort()
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	epochs, covered, err := verifyRecovered(dir, seed, shards, batches)
	if err != nil {
		t.Fatalf("after catch-up: %v", err)
	}
	if covered != batches {
		t.Fatalf("after catch-up: covered %d batches, want %d (epoch vector %v)", covered, batches, epochs)
	}
}
