// Command crashtest is the durability kill harness: it SIGKILLs a child
// ingester at random points mid-stream, recovers the store, and proves
// the recovered adjacency is bit-identical to the dense Definition I.3
// oracle over every batch the child acknowledged as durable before
// dying. One harness serves every shard count: at one shard the store
// is a single log; at more, a kill can land mid-scatter.
//
// The harness re-execs its own binary as the child (CRASHTEST_CHILD=1
// in the environment). The child opens the durable store, repairs any
// partial scatter, and continues appending deterministic batches —
// batch b's size, endpoints, and weights derive from (seed, b) alone,
// so the parent can regenerate the exact stream prefix for any
// recovered epoch vector without coordination. The child prints "acked
// b" after each append; under the per-batch fsync policy that line is a
// durability promise, and the parent holds recovery to it: fewer
// recovered batches than the last acked line, or than the previous
// iteration verified, is data loss and fails the run.
//
// Weights are small integers, so the ⊕-fold is exact in float64
// regardless of association order and the oracle comparison can demand
// bit identity, not tolerance.
//
// Two hazards are specific to sharding and gated at shards > 1:
//
//   - A SIGKILL can land mid-scatter: the dying Append had written its
//     sub-batch to shard 0's WAL but not yet to shard 2's, so the
//     recovered per-shard epochs disagree about the final global batch.
//     Recovery must serve exactly the union of per-shard prefixes —
//     bit-identical to the dense oracle over those edges — and the next
//     run must repair the partial batch (re-append only the missing
//     sub-batches) before continuing the stream.
//
//   - Damage can hit ONE shard directory while its siblings stay
//     intact (TestTornShardDirectory): the torn shard repairs to its own
//     verified prefix, the gathered adjacency reflects the mixed epoch
//     vector exactly, and the same catch-up restores the lost sub-batch.
//
// At one shard every batch is non-empty on shard 0, so the union of
// prefixes is the prefix and the catch-up appends nothing.
//
// Corruption, disk-fault schedules and degraded serving run in process
// and are tested where they live: internal/stream (TestFaultSchedules,
// the TestDurable* corruption tests), internal/wal and internal/serve
// (TestIngestDegradedMode).
//
// Usage:
//
//	crashtest -iters 50 -seed 7 -shards 1
//	crashtest -iters 200 -dir /mnt/scratch -shards 3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
	"adjarray/internal/wal"
)

const childEnv = "CRASHTEST_CHILD"

// The kill schedule. Each child run may append batchesPerRun batches past
// the recovered epoch and checkpoints every checkpointEvery; the SIGKILL
// lands after a random delay of at most killAfterMaxMS.
const (
	batchesPerRun   = 48
	checkpointEvery = 7
	killAfterMaxMS  = 30
)

func main() {
	if os.Getenv(childEnv) == "1" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "crashtest child:", err)
			os.Exit(1)
		}
		return
	}
	var cfg harnessConfig
	flag.IntVar(&cfg.Iters, "iters", 50, "kill-and-recover iterations")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed (batch contents derive from it)")
	flag.StringVar(&cfg.Dir, "dir", "", "scratch directory (default: a fresh temp dir)")
	flag.IntVar(&cfg.Shards, "shards", 3, "shard count of the store under test (1 = one log)")
	flag.Parse()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "crashtest: "+format+"\n", args...) }
	if cfg.Iters < 1 || cfg.Shards < 1 {
		logf("-iters and -shards must be at least 1, got %d and %d", cfg.Iters, cfg.Shards)
		os.Exit(2)
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "crashtest-*")
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	if err := runHarness(cfg, logf); err != nil {
		logf("FAIL: %v", err)
		os.Exit(1)
	}
	logf("PASS")
}

// mustOps resolves the harness algebra. The workload is conventional
// arithmetic: + folds multi-edges, small-integer weights keep it exact.
func mustOps() (semiring.Ops[float64], error) {
	e, ok := semiring.Lookup("+.*")
	if !ok {
		return semiring.Ops[float64]{}, fmt.Errorf("+.* pair not registered")
	}
	return e.Ops, nil
}

// ---------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------

// batchEdges regenerates batch b from (seed, b) alone: at most 11 edges
// whose keys start at b·16, so keys ascend across batches without
// counting the earlier ones; endpoints land in a small vertex space
// (multi-edges and fold pressure), weights are integers in [1, 8].
func batchEdges(seed int64, b uint64) []stream.Edge[float64] {
	r := rand.New(rand.NewSource(seed ^ int64(b)*1000003))
	n := 1 + r.Intn(11)
	edges := make([]stream.Edge[float64], n)
	for i := range edges {
		edges[i] = stream.Weighted(
			fmt.Sprintf("k%09d", int(b)*16+i),
			fmt.Sprintf("s%02d", r.Intn(24)),
			fmt.Sprintf("t%02d", r.Intn(24)),
			float64(1+r.Intn(8)),
			float64(1+r.Intn(8)),
		)
	}
	return edges
}

// scatterBatch regenerates global batch b and groups it by the store's
// shard routing.
func scatterBatch(sv *stream.Store[float64], seed int64, b uint64) [][]stream.Edge[float64] {
	bySh := make([][]stream.Edge[float64], sv.Shards())
	for _, e := range batchEdges(seed, b) {
		s := sv.ShardFor(e.Src)
		bySh[s] = append(bySh[s], e)
	}
	return bySh
}

func anyPositive(xs []int) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

// walkCap bounds the batch walk during epoch reconstruction; reaching
// it means the recovered epochs cannot be explained by the workload.
const walkCap = 1 << 20

// catchUp reconciles a recovered store with the deterministic stream:
// walking global batches in order, each shard consumes its recovered
// epoch's worth of non-empty sub-batches; any sub-batch a shard is
// missing (a mid-scatter kill's unreached shards, or a torn shard tail)
// is re-appended in batch order — per shard the missing sub-batches are
// always the newest, so explicit keys keep ascending. Returns the next
// unwritten global batch.
func catchUp(sv *stream.Store[float64], seed int64) (uint64, error) {
	remaining := append([]int{}, sv.Stats().Epochs...)
	b := uint64(0)
	for anyPositive(remaining) {
		b++
		if b > walkCap {
			return 0, fmt.Errorf("recovered shard epochs %v unexplained after %d batches", sv.Stats().Epochs, walkCap)
		}
		var missing []stream.Edge[float64]
		for s, sub := range scatterBatch(sv, seed, b) {
			if len(sub) == 0 {
				continue
			}
			if remaining[s] > 0 {
				remaining[s]--
			} else {
				missing = append(missing, sub...)
			}
		}
		if len(missing) > 0 {
			if err := sv.Append(missing); err != nil {
				return 0, fmt.Errorf("repair batch %d: %w", b, err)
			}
		}
	}
	return b + 1, nil
}

// verifyRecovered reopens the store, reconstructs which edges each shard
// recovered (its epoch counts non-empty sub-batches, consumed in batch
// order), and holds the gathered adjacency to bit identity against the
// dense oracle over exactly that edge union. It returns the per-shard
// epoch vector and the count of global batches fully covered by every
// shard; covered < minEpoch is acknowledged data loss.
func verifyRecovered(dir string, seed int64, shards int, minEpoch uint64) ([]int, uint64, error) {
	ops, err := mustOps()
	if err != nil {
		return nil, 0, err
	}
	sv, err := stream.Open(dir, ops, shards, stream.DurableOptions[float64]{})
	if err != nil {
		return nil, 0, fmt.Errorf("recovery failed: %w", err)
	}
	defer sv.Close() //adjlint:ignore syncerr read-only recovery probe; nothing was appended to lose
	epochs := append([]int{}, sv.Stats().Epochs...)
	remaining := append([]int{}, epochs...)

	var outT, inT []assoc.Triple[float64]
	covered, full := uint64(0), true
	for b := uint64(1); anyPositive(remaining); b++ {
		if b > walkCap {
			return nil, 0, fmt.Errorf("recovered shard epochs %v unexplained after %d batches", epochs, walkCap)
		}
		batchFull := true
		for s, sub := range scatterBatch(sv, seed, b) {
			if len(sub) == 0 {
				continue
			}
			if remaining[s] == 0 {
				batchFull = false
				continue
			}
			remaining[s]--
			for _, e := range sub {
				outT = append(outT, assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out})
				inT = append(inT, assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In})
			}
		}
		if full && batchFull {
			covered = b
		} else {
			full = false
		}
	}
	if covered < minEpoch {
		return nil, 0, fmt.Errorf("LOST ACKNOWLEDGED DATA: covered %d global batches < last acked %d (epoch vector %v)",
			covered, minEpoch, epochs)
	}

	eout := assoc.FromTriples(outT, nil)
	ein := assoc.FromTriples(inT, nil)
	want, err := assoc.MulDense(eout.Transpose(), ein, ops)
	if err != nil {
		return nil, 0, err
	}
	snap, err := sv.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	bitEqual := func(a, b float64) bool { return a == b }
	if diff := assoc.Diff(want, snap.Adjacency, bitEqual, value.FormatFloat); diff != "" {
		return nil, 0, fmt.Errorf("recovered adjacency diverges from the dense oracle (epoch vector %v): %s", epochs, diff)
	}
	return epochs, covered, nil
}

// ---------------------------------------------------------------------
// Child: ingest until killed
// ---------------------------------------------------------------------

// childMain recovers the store, repairs any partial scatter, and keeps
// appending global batches until its quota or a SIGKILL. Configuration
// arrives via environment (the parent re-execs this same binary), and
// every "acked b" line is printed only after Append returned under
// per-shard SyncEveryAppend — all of batch b's sub-batches hit their
// shards' stable storage.
func childMain() error {
	dir := os.Getenv("CRASHTEST_DIR")
	if dir == "" {
		return fmt.Errorf("CRASHTEST_DIR not set")
	}
	seed, err := strconv.ParseInt(os.Getenv("CRASHTEST_SEED"), 10, 64)
	if err != nil {
		return fmt.Errorf("CRASHTEST_SEED: %w", err)
	}
	maxB, err := strconv.ParseUint(os.Getenv("CRASHTEST_MAX"), 10, 64)
	if err != nil {
		return fmt.Errorf("CRASHTEST_MAX: %w", err)
	}
	shards, err := strconv.Atoi(os.Getenv("CRASHTEST_SHARDS"))
	if err != nil {
		return fmt.Errorf("CRASHTEST_SHARDS: %w", err)
	}
	ops, err := mustOps()
	if err != nil {
		return err
	}
	sv, err := stream.Open(dir, ops, shards, stream.DurableOptions[float64]{
		WAL: wal.Options{
			Policy: wal.SyncEveryAppend,
			// Tiny segments force rotation (and retirement, under the
			// checkpoint cadence) inside the kill window.
			SegmentBytes: 16 << 10,
		},
		CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		return err
	}
	// Error-path backstop only: the success path returns sv.Close()
	// below, and acked batches are already durable under SyncEveryAppend.
	//adjlint:ignore syncerr
	defer sv.Close()
	next, err := catchUp(sv, seed)
	if err != nil {
		return err
	}
	for b := next; b <= maxB; b++ {
		if err := sv.Append(batchEdges(seed, b)); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		// Unbuffered on purpose: the ack must be in the pipe before the
		// next append can die.
		fmt.Fprintf(os.Stdout, "acked %d\n", b)
	}
	return sv.Close()
}

// ---------------------------------------------------------------------
// Parent: kill, recover, verify, repeat
// ---------------------------------------------------------------------

type harnessConfig struct {
	Iters  int
	Seed   int64
	Dir    string
	Shards int
}

// runHarness drives the kill-and-recover loop over one store directory:
// each iteration grants the child a fresh batch quota on top of the
// covered epoch, kills it after a random delay, and verifies the
// recovered state — so later iterations recover stores shaped by many
// earlier crashes (checkpoints mid-history, retired segments, torn
// tails already repaired once, partial scatters). Recovery may never
// cover fewer batches than the child acknowledged, nor than the
// previous iteration verified: a child killed before its first ack
// still owes everything before it.
func runHarness(cfg harnessConfig, logf func(string, ...any)) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.Dir, "store")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	epoch := uint64(0)
	killed := 0
	for it := 0; it < cfg.Iters; it++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			childEnv+"=1",
			"CRASHTEST_DIR="+dir,
			"CRASHTEST_SEED="+strconv.FormatInt(cfg.Seed, 10),
			"CRASHTEST_MAX="+strconv.FormatUint(epoch+batchesPerRun, 10),
			"CRASHTEST_SHARDS="+strconv.Itoa(cfg.Shards),
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var acked atomic.Uint64
		done := make(chan struct{})
		go func() {
			defer close(done)
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				var b uint64
				if _, err := fmt.Sscanf(sc.Text(), "acked %d", &b); err == nil {
					acked.Store(b)
				}
			}
		}()
		// A delay of up to killAfterMaxMS lands the SIGKILL anywhere from
		// before the first append to mid-scatter to mid-checkpoint to
		// after quota exhaustion — all of which recovery must survive.
		time.Sleep(time.Duration(rng.Intn(killAfterMaxMS*1000+1)) * time.Microsecond)
		_ = cmd.Process.Kill()
		werr := cmd.Wait()
		<-done
		epochs, covered, err := verifyRecovered(dir, cfg.Seed, cfg.Shards, max(epoch, acked.Load()))
		if err != nil {
			return fmt.Errorf("iteration %d (acked %d): %w", it, acked.Load(), err)
		}
		if werr != nil {
			// A clean wait means the child finished its quota before the
			// kill landed; only an actual mid-run kill counts.
			killed++
		}
		logf("iter %d: acked %d, covered %d, epoch vector %v", it, acked.Load(), covered, epochs)
		epoch = covered
	}
	if killed == 0 {
		return fmt.Errorf("no iteration actually killed the child mid-run (quota %d batches, kill delay at most %d ms)",
			batchesPerRun, killAfterMaxMS)
	}
	logf("done: %d iterations at %d shards (%d mid-run kills), covered %d global batches", cfg.Iters, cfg.Shards, killed, epoch)
	return nil
}
