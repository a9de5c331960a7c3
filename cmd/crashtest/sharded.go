package main

// Sharded fault injection: the same kill-and-recover discipline applied
// to the goroutine-sharded durable store, where one ingest scatters
// across N per-shard WAL/checkpoint directories. Two hazards are
// specific to sharding and gated here:
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
//     intact: the torn shard repairs to its own verified prefix, the
//     gathered adjacency reflects the mixed epoch vector exactly, and a
//     catch-up pass restores the lost sub-batches from the deterministic
//     stream (per-shard keys keep ascending, so the repair is an
//     ordinary append).
//
// The workload is the harness's deterministic one; routing is
// regenerated through the recovered view's own ShardFor, so the parent
// reconstructs every shard's sub-batch sequence from (seed, batch)
// alone.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/stream"
	"adjarray/internal/value"
	"adjarray/internal/wal"
)

// scatterBatch regenerates global batch b and groups it by the view's
// shard routing.
func scatterBatch(sv *stream.Store[float64], seed int64, b uint64) [][]stream.Edge[float64] {
	bySh := make([][]stream.Edge[float64], sv.Shards())
	for _, e := range batchEdges(seed, b, keyBase(seed, b)) {
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

// shardedCatchUp reconciles a recovered sharded store with the
// deterministic stream: walking global batches in order, each shard
// consumes its recovered epoch's worth of non-empty sub-batches; any
// sub-batch a shard is missing (a mid-scatter kill's unreached shards,
// or a torn shard tail) is re-appended in batch order — per shard the
// missing sub-batches are always the newest, so explicit keys keep
// ascending. Returns the next unwritten global batch.
func shardedCatchUp(sv *stream.Store[float64], seed int64) (uint64, error) {
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

// verifyShardedRecovered reopens the sharded store, reconstructs which
// edges each shard recovered (its epoch counts non-empty sub-batches,
// consumed in batch order), and holds the gathered adjacency to bit
// identity against the dense oracle over exactly that edge union. It
// returns the per-shard epoch vector and the count of global batches
// fully covered by every shard; covered < minEpoch is acknowledged data
// loss.
func verifyShardedRecovered(dir string, seed int64, shards int, minEpoch uint64) ([]int, uint64, error) {
	ops, err := mustOps()
	if err != nil {
		return nil, 0, err
	}
	sv, err := stream.Open(dir, ops, shards, stream.Options{}, stream.DurableOptions[float64]{})
	if err != nil {
		return nil, 0, fmt.Errorf("sharded recovery failed: %w", err)
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
		return nil, 0, fmt.Errorf("gathered adjacency diverges from the dense oracle (epoch vector %v): %s", epochs, diff)
	}
	return epochs, covered, nil
}

// childShardedMain is the sharded child: recover, repair any partial
// scatter, then keep appending global batches until quota or SIGKILL.
// Every "acked b" line is printed only after the full scatter returned
// under per-shard SyncEveryAppend — all of batch b's sub-batches hit
// their shards' stable storage.
func childShardedMain(dir string, seed int64, maxB uint64, shards, ckptEvery int) error {
	ops, err := mustOps()
	if err != nil {
		return err
	}
	sv, err := stream.Open(dir, ops, shards, stream.Options{}, stream.DurableOptions[float64]{
		WAL: wal.Options{
			Policy:       wal.SyncEveryAppend,
			SegmentBytes: 16 << 10,
		},
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	// Error-path backstop only: the success path returns sv.Close()
	// below, and acked batches are already durable under SyncEveryAppend.
	//adjlint:ignore syncerr
	defer sv.Close()
	next, err := shardedCatchUp(sv, seed)
	if err != nil {
		return err
	}
	for b := next; b <= maxB; b++ {
		if err := sv.Append(batchEdges(seed, b, keyBase(seed, b))); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		fmt.Fprintf(os.Stdout, "acked %d\n", b)
	}
	return sv.Close()
}

// runShardedHarness is runHarness over the sharded store: random
// SIGKILLs against the scattering child, recovery verified against the
// union-of-prefixes oracle each iteration.
func runShardedHarness(cfg harnessConfig, shards int, logf func(string, ...any)) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.Dir, "sharded-store")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	epoch := uint64(0)
	killed := 0
	for it := 0; it < cfg.Iters; it++ {
		quota := epoch + uint64(cfg.BatchesPerRun)
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			childEnv+"=1",
			"CRASHTEST_DIR="+dir,
			"CRASHTEST_SEED="+strconv.FormatInt(cfg.Seed, 10),
			"CRASHTEST_MAX="+strconv.FormatUint(quota, 10),
			"CRASHTEST_CKPT="+strconv.Itoa(cfg.CheckpointEvery),
			"CRASHTEST_SHARDS="+strconv.Itoa(shards),
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
		time.Sleep(time.Duration(rng.Intn(cfg.KillAfterMaxMS*1000+1)) * time.Microsecond)
		_ = cmd.Process.Kill()
		werr := cmd.Wait()
		<-done
		min := epoch
		if a := acked.Load(); a > min {
			min = a
		}
		epochs, covered, err := verifyShardedRecovered(dir, cfg.Seed, shards, min)
		if err != nil {
			return fmt.Errorf("sharded iteration %d (acked %d): %w", it, acked.Load(), err)
		}
		if werr != nil {
			killed++
		}
		logf("sharded iter %d: acked %d, covered %d, epoch vector %v", it, acked.Load(), covered, epochs)
		epoch = covered
	}
	if killed == 0 {
		return fmt.Errorf("no sharded iteration actually killed the child mid-run; increase -batches-per-run or lower -kill-after-max-ms")
	}
	logf("sharded done: %d iterations (%d mid-run kills), covered %d global batches", cfg.Iters, killed, epoch)
	return nil
}

// runShardedTornShard is the kill-one-shard-directory scenario: a
// cleanly written 3-shard store has ONE shard's newest WAL segment torn
// (the other directories stay intact). Recovery must repair that shard
// to its verified prefix — epoch exactly one below its pre-damage value,
// siblings untouched — and serve the gathered adjacency bit-identical
// to the oracle over the now-uneven prefixes. A catch-up pass then
// restores the lost sub-batch from the deterministic stream and the
// store verifies at full coverage again.
func runShardedTornShard(root string, seed int64, logf func(string, ...any)) error {
	const shards, batches = 3, 14
	ops, err := mustOps()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "sharded-torn")
	sv, err := stream.Open(dir, ops, shards, stream.Options{}, stream.DurableOptions[float64]{})
	if err != nil {
		return err
	}
	for b := uint64(1); b <= batches; b++ {
		if err := sv.Append(batchEdges(seed, b, keyBase(seed, b))); err != nil {
			sv.Abort()
			return err
		}
	}
	before := append([]int{}, sv.Stats().Epochs...)
	if err := sv.Sync(); err != nil {
		sv.Abort()
		return err
	}
	sv.Abort() // no final checkpoint: every shard keeps a WAL tail to tear

	// Tear the newest segment of shard 1 only.
	victim := 1
	seg, err := lastSegment(filepath.Join(dir, fmt.Sprintf("shard-%03d", victim)))
	if err != nil {
		return err
	}
	fi, err := os.Stat(seg)
	if err != nil {
		return err
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		return err
	}

	epochs, _, err := verifyShardedRecovered(dir, seed, shards, 0)
	if err != nil {
		return fmt.Errorf("torn shard: %w", err)
	}
	for s := range epochs {
		want := before[s]
		if s == victim {
			want--
		}
		if epochs[s] != want {
			return fmt.Errorf("torn shard: epoch vector %v after damage, want %v with shard %d one back", epochs, before, victim)
		}
	}
	logf("sharded corruption: shard %d torn to epoch %d, siblings intact %v", victim, epochs[victim], epochs)

	// Catch-up: re-append the lost sub-batch, then the store must verify
	// at full coverage.
	sv, err = stream.Open(dir, ops, shards, stream.Options{}, stream.DurableOptions[float64]{})
	if err != nil {
		return err
	}
	if _, err := shardedCatchUp(sv, seed); err != nil {
		sv.Abort()
		return err
	}
	if err := sv.Sync(); err != nil {
		sv.Abort()
		return err
	}
	if err := sv.Close(); err != nil {
		return err
	}
	epochs, covered, err := verifyShardedRecovered(dir, seed, shards, batches)
	if err != nil {
		return fmt.Errorf("after catch-up: %w", err)
	}
	if covered != batches {
		return fmt.Errorf("after catch-up: covered %d batches, want %d (epoch vector %v)", covered, batches, epochs)
	}
	logf("sharded corruption: shard %d repaired; full coverage at %d batches restored", victim, batches)
	return nil
}
