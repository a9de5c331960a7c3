// Command crashtest is the durability fault-injection harness: it
// SIGKILLs a child ingester at random points mid-stream, recovers the
// store, and proves the recovered adjacency is bit-identical to the
// dense Definition I.3 oracle over every batch the child acknowledged
// as durable before dying.
//
// The harness re-execs its own binary as the child (CRASHTEST_CHILD=1
// in the environment). The child opens the durable store, reads the
// recovered epoch, and continues appending deterministic batches —
// batch b's size, endpoints, and weights derive from (seed, b) alone,
// so the parent can regenerate the exact stream prefix for any
// recovered epoch without coordination. The child prints "acked b"
// after each append; under the per-batch fsync policy that line is a
// durability promise, and the parent holds recovery to it: a recovered
// epoch below the last acked line is data loss and fails the run.
//
// Weights are small integers, so the ⊕-fold is exact in float64
// regardless of association order and the oracle comparison can demand
// bit identity, not tolerance.
//
// With -corrupt the harness also injects damage into a cleanly written
// store — torn final record, bit flip mid-log, bit flip in the newest
// checkpoint — and asserts recovery either repairs to a verified
// prefix, falls back to an older checkpoint and replays forward, or
// refuses with the typed corruption error. Silent wrongness is the one
// outcome that must never happen.
//
// With -faults the harness runs randomized disk-fault schedules in
// process (internal/iofault: EIO, ENOSPC, short writes, torn writes
// against the live WAL and checkpoint paths) and asserts the wedge
// contract — no failed fsync advances the durable boundary, the store
// goes read-only and stays there, and a clean reopen is bit-identical
// to the oracle over everything acknowledged — plus a scripted
// degraded-mode serving scenario where every read endpoint must answer
// non-5xx while ingest sheds 503.
//
// Usage:
//
//	crashtest -iters 50 -seed 7
//	crashtest -iters 200 -dir /mnt/scratch -corrupt=false
//	crashtest -iters 0 -corrupt=false -shards 1 -fault-schedules 50
package main

import (
	"bufio"
	"errors"
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
	flag.IntVar(&cfg.BatchesPerRun, "batches-per-run", 48, "batch quota granted to each child run")
	flag.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 7, "child checkpoints every N batches (0 = never)")
	flag.IntVar(&cfg.KillAfterMaxMS, "kill-after-max-ms", 30, "upper bound on the random delay before SIGKILL")
	corrupt := flag.Bool("corrupt", true, "also run the corruption-injection scenarios")
	shards := flag.Int("shards", 3, "also run the sharded kill-and-recover harness with this many shards (<= 1 disables)")
	faults := flag.Bool("faults", true, "run the randomized disk-fault schedule suite and the scripted degraded-serving scenario")
	faultSchedules := flag.Int("fault-schedules", 50, "randomized fault schedules for -faults (0 disables the schedule loop)")
	flag.Parse()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "crashtest: "+format+"\n", args...) }
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "crashtest-*")
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	// -iters 0 skips the kill harnesses entirely (e.g. a CI arm that
	// only runs the fault-schedule suite).
	if cfg.Iters > 0 {
		if err := runHarness(cfg, logf); err != nil {
			logf("FAIL: %v", err)
			os.Exit(1)
		}
		if *shards > 1 {
			if err := runShardedHarness(cfg, *shards, logf); err != nil {
				logf("FAIL: %v", err)
				os.Exit(1)
			}
		}
	}
	if *corrupt {
		if *shards > 1 {
			if err := runShardedTornShard(filepath.Join(cfg.Dir, "corrupt"), cfg.Seed, logf); err != nil {
				logf("FAIL: %v", err)
				os.Exit(1)
			}
		}
		if err := runCorruption(filepath.Join(cfg.Dir, "corrupt"), cfg.Seed, logf); err != nil {
			logf("FAIL: %v", err)
			os.Exit(1)
		}
	}
	if *faults {
		if *faultSchedules > 0 {
			if err := runFaultSchedules(filepath.Join(cfg.Dir, "faults"), cfg.Seed, *faultSchedules, logf); err != nil {
				logf("FAIL: %v", err)
				os.Exit(1)
			}
		}
		if err := runDegradedServing(filepath.Join(cfg.Dir, "degraded-serve"), cfg.Seed, logf); err != nil {
			logf("FAIL: %v", err)
			os.Exit(1)
		}
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

// oracle computes the dense Definition I.3 adjacency over batches
// [1, epoch] regenerated from the seed.
func oracle(seed int64, epoch uint64, ops semiring.Ops[float64]) (*assoc.Array[float64], error) {
	var outT, inT []assoc.Triple[float64]
	for b := uint64(1); b <= epoch; b++ {
		for _, e := range batchEdges(seed, b) {
			outT = append(outT, assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out})
			inT = append(inT, assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In})
		}
	}
	eout := assoc.FromTriples(outT, nil)
	ein := assoc.FromTriples(inT, nil)
	return assoc.MulDense(eout.Transpose(), ein, ops)
}

// verifyRecovered opens the store, checks nothing acknowledged durable
// was lost, and holds the recovered adjacency to bit identity against
// the oracle. It returns the recovered epoch.
func verifyRecovered(dir string, seed int64, minEpoch uint64) (uint64, error) {
	ops, err := mustOps()
	if err != nil {
		return 0, err
	}
	d, err := stream.Open(dir, ops, 1, stream.DurableOptions[float64]{})
	if err != nil {
		return 0, fmt.Errorf("recovery failed: %w", err)
	}
	defer d.Close() //adjlint:ignore syncerr read-only recovery probe; nothing was appended to lose
	st := d.Durability()[0]
	if st.Epoch < minEpoch {
		return 0, fmt.Errorf("LOST ACKNOWLEDGED DATA: recovered epoch %d < last acked %d", st.Epoch, minEpoch)
	}
	snap, err := d.Snapshot()
	if err != nil {
		return 0, err
	}
	want, err := oracle(seed, st.Epoch, ops)
	if err != nil {
		return 0, err
	}
	bitEqual := func(a, b float64) bool { return a == b }
	if diff := assoc.Diff(want, snap.Adjacency, bitEqual, value.FormatFloat); diff != "" {
		return 0, fmt.Errorf("recovered adjacency diverges from the dense oracle at epoch %d: %s", st.Epoch, diff)
	}
	return st.Epoch, nil
}

// ---------------------------------------------------------------------
// Child: ingest until killed
// ---------------------------------------------------------------------

// childMain recovers the store and keeps appending workload batches
// until its quota or a SIGKILL. Configuration arrives via environment
// (the parent re-execs this same binary), and every "acked b" line is
// printed only after Append returned under the per-batch fsync policy —
// i.e. after the batch hit stable storage.
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
	ckptEvery, _ := strconv.Atoi(os.Getenv("CRASHTEST_CKPT"))
	if shards, _ := strconv.Atoi(os.Getenv("CRASHTEST_SHARDS")); shards > 1 {
		return childShardedMain(dir, seed, maxB, shards, ckptEvery)
	}
	ops, err := mustOps()
	if err != nil {
		return err
	}
	d, err := stream.Open(dir, ops, 1, stream.DurableOptions[float64]{
		WAL: wal.Options{
			Policy: wal.SyncEveryAppend,
			// Tiny segments force rotation (and retirement, under the
			// checkpoint cadence) inside the kill window.
			SegmentBytes: 16 << 10,
		},
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	// Error-path backstop only: the success path returns d.Close() below,
	// and acked batches are already durable under SyncEveryAppend.
	//adjlint:ignore syncerr
	defer d.Close()
	for b := d.Durability()[0].Epoch + 1; b <= maxB; b++ {
		if err := d.Append(batchEdges(seed, b)); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		// Unbuffered on purpose: the ack must be in the pipe before the
		// next append can die.
		fmt.Fprintf(os.Stdout, "acked %d\n", b)
	}
	return d.Close()
}

// ---------------------------------------------------------------------
// Parent: kill, recover, verify, repeat
// ---------------------------------------------------------------------

type harnessConfig struct {
	Iters           int
	Seed            int64
	Dir             string
	BatchesPerRun   int
	CheckpointEvery int
	KillAfterMaxMS  int
}

// runHarness drives the kill-and-recover loop over one store directory:
// each iteration grants the child a fresh batch quota on top of the
// recovered epoch, kills it after a random delay, and verifies the
// recovered state — so later iterations recover stores shaped by many
// earlier crashes (checkpoints mid-history, retired segments, torn
// tails already repaired once).
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
		quota := epoch + uint64(cfg.BatchesPerRun)
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			childEnv+"=1",
			"CRASHTEST_DIR="+dir,
			"CRASHTEST_SEED="+strconv.FormatInt(cfg.Seed, 10),
			"CRASHTEST_MAX="+strconv.FormatUint(quota, 10),
			"CRASHTEST_CKPT="+strconv.Itoa(cfg.CheckpointEvery),
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
		// A delay of up to KillAfterMaxMS lands the SIGKILL anywhere from
		// before the first append to mid-checkpoint to after quota
		// exhaustion — all of which recovery must survive.
		time.Sleep(time.Duration(rng.Intn(cfg.KillAfterMaxMS*1000+1)) * time.Microsecond)
		_ = cmd.Process.Kill()
		werr := cmd.Wait()
		<-done
		next, err := verifyRecovered(dir, cfg.Seed, acked.Load())
		if err != nil {
			return fmt.Errorf("iteration %d (acked %d): %w", it, acked.Load(), err)
		}
		if werr != nil {
			// A clean wait means the child finished its quota before the
			// kill landed; only an actual mid-run kill counts.
			killed++
		}
		logf("iter %d: acked %d, recovered epoch %d", it, acked.Load(), next)
		epoch = next
	}
	if killed == 0 {
		return fmt.Errorf("no iteration actually killed the child mid-run; increase -batches-per-run or lower -kill-after-max-ms")
	}
	logf("done: %d iterations (%d mid-run kills), final epoch %d", cfg.Iters, killed, epoch)
	return nil
}

// ---------------------------------------------------------------------
// Corruption injection
// ---------------------------------------------------------------------

// buildCleanStore writes `batches` workload batches with the given
// checkpoint cadence and closes cleanly (no final checkpoint, so a WAL
// tail always remains to corrupt).
func buildCleanStore(dir string, seed int64, batches uint64, ckptEvery int) error {
	ops, err := mustOps()
	if err != nil {
		return err
	}
	d, err := stream.Open(dir, ops, 1, stream.DurableOptions[float64]{})
	if err != nil {
		return err
	}
	for b := uint64(1); b <= batches; b++ {
		if err := d.Append(batchEdges(seed, b)); err != nil {
			d.Abort()
			return err
		}
		if ckptEvery > 0 && b%uint64(ckptEvery) == 0 {
			if err := d.Checkpoint(); err != nil {
				d.Abort()
				return err
			}
		}
	}
	return d.Close()
}

// lastSegment returns the path of the newest WAL segment in dir.
func lastSegment(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("no WAL segments in %s (%v)", dir, err)
	}
	last := matches[0]
	for _, m := range matches[1:] {
		if m > last {
			last = m
		}
	}
	return last, nil
}

// flipByte XORs one byte of the file at off (negative: from the end).
func flipByte(path string, off int64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 {
		off += int64(len(buf))
	}
	if off < 0 || off >= int64(len(buf)) {
		return fmt.Errorf("flip offset %d out of range for %s (%d bytes)", off, path, len(buf))
	}
	buf[off] ^= 0x40
	return os.WriteFile(path, buf, 0o666)
}

// runCorruption runs the scripted damage scenarios, each in a fresh
// store under root.
func runCorruption(root string, seed int64, logf func(string, ...any)) error {
	const batches = 12
	ops, err := mustOps()
	if err != nil {
		return err
	}

	// Scenario 1: torn final record. Recovery truncates the tail and
	// serves the longest verified prefix — epoch 11, bit-identical.
	dir := filepath.Join(root, "torn-tail")
	if err := buildCleanStore(dir, seed, batches, 0); err != nil {
		return err
	}
	seg, err := lastSegment(dir)
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
	epoch, err := verifyRecovered(dir, seed, batches-1)
	if err != nil {
		return fmt.Errorf("torn tail: %w", err)
	}
	if epoch != batches-1 {
		return fmt.Errorf("torn tail: recovered epoch %d, want %d", epoch, batches-1)
	}
	logf("corruption: torn tail repaired to epoch %d", epoch)

	// Scenario 2: bit flip mid-log (no checkpoint covers it). Recovery
	// must refuse with the typed corruption error — serving a prefix
	// would silently drop acknowledged batches below intact records.
	dir = filepath.Join(root, "midlog-flip")
	if err := buildCleanStore(dir, seed, batches, 0); err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no segments to corrupt")
	}
	fi, err = os.Stat(segs[0])
	if err != nil {
		return err
	}
	if err := flipByte(segs[0], fi.Size()/2); err != nil {
		return err
	}
	if _, err := stream.Open(dir, ops, 1, stream.DurableOptions[float64]{}); !errors.Is(err, wal.ErrCorrupt) {
		return fmt.Errorf("mid-log flip: Open returned %v, want the typed corruption error", err)
	}
	logf("corruption: mid-log bit flip refused with ErrCorrupt")

	// Scenario 3: stale checkpoint + longer WAL. The newest checkpoint
	// is damaged; recovery must fall back to the older one and replay
	// the full WAL forward — no acknowledged batch lost.
	dir = filepath.Join(root, "stale-ckpt")
	if err := buildCleanStore(dir, seed, batches, 4); err != nil {
		return err
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(ckpts) < 2 {
		return fmt.Errorf("want >= 2 checkpoints to injure, got %v", ckpts)
	}
	newest := ckpts[0]
	for _, c := range ckpts[1:] {
		if c > newest {
			newest = c
		}
	}
	if err := flipByte(newest, -3); err != nil {
		return err
	}
	epoch, err = verifyRecovered(dir, seed, batches)
	if err != nil {
		return fmt.Errorf("stale checkpoint: %w", err)
	}
	logf("corruption: damaged newest checkpoint; fell back and replayed to epoch %d", epoch)
	return nil
}
