package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/iofault"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
	"adjarray/internal/wal"
)

// scheduleBatch regenerates batch b from (seed, b) alone: at most 11
// edges whose keys start at b·16, so keys ascend across batches without
// counting the earlier ones; endpoints land in a small vertex space,
// weights are integers in [1, 8] so every ⊕-fold is exact in float64.
func scheduleBatch(seed int64, b uint64) []Edge[float64] {
	r := rand.New(rand.NewSource(seed ^ int64(b)*1000003))
	edges := make([]Edge[float64], 1+r.Intn(11))
	for i := range edges {
		edges[i] = Weighted(
			fmt.Sprintf("k%09d", int(b)*16+i),
			fmt.Sprintf("s%02d", r.Intn(24)),
			fmt.Sprintf("t%02d", r.Intn(24)),
			float64(1+r.Intn(8)),
			float64(1+r.Intn(8)),
		)
	}
	return edges
}

// TestFaultSchedules runs randomized disk-fault schedules against live
// ingest: rounds of appends through a seed-driven iofault injector, all
// against ONE store directory so later rounds recover state shaped by
// earlier wedges. Each round opens the store clean (recovery itself is
// not attacked), arms a random schedule — EIO, ENOSPC, short writes,
// torn writes at a random rate with a small budget — and appends
// batches until the quota or a wedge. The contract, per round:
//
//   - An append refused by a storage fault fails typed (ErrReadOnly).
//   - After a wedge the durable boundary froze exactly at the last
//     acknowledged batch — no failed fsync advanced it — and the store
//     reports read-only.
//   - The wedge is sticky: the fault condition clearing (Clear) does
//     not un-wedge, and further appends still refuse.
//   - A clean reopen recovers bit-identically to the dense oracle over
//     at least every acknowledged batch.
//
// Full mode runs two independent schedule sets of 50; -short keeps the
// race run in budget.
func TestFaultSchedules(t *testing.T) {
	runs := []struct {
		seed      int64
		schedules int
	}{{13, 50}, {21, 50}}
	if testing.Short() {
		runs = runs[:1]
		runs[0].schedules = 12
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("seed=%d", r.seed), func(t *testing.T) {
			faultSchedules(t, r.seed, r.schedules)
		})
	}
}

func faultSchedules(t *testing.T, seed int64, schedules int) {
	ops := plusTimes(t)
	dir := t.TempDir()
	epoch := uint64(0)
	wedges, degradedOnly, faults := 0, 0, 0
	for i := 0; i < schedules; i++ {
		schedSeed := seed ^ int64(i+1)*0x9e3779b9
		rng := rand.New(rand.NewSource(schedSeed))
		inj := iofault.New()
		d, err := Open(dir, ops, 1, DurableOptions[float64]{
			FS: iofault.Wrap(iofault.OS, inj),
			WAL: wal.Options{
				Policy:       wal.SyncEveryAppend,
				SegmentBytes: 16 << 10, // force rotation inside the schedule
			},
			CheckpointEvery: 5,
		})
		if err != nil {
			t.Fatalf("schedule %d: clean open failed: %v", i, err)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			d.Abort()
			t.Fatalf("schedule %d: "+format, append([]any{i}, args...)...)
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
			if err := d.Append(scheduleBatch(seed, b)); err != nil {
				if !errors.Is(err, ErrReadOnly) {
					fail("batch %d: append failed untyped: %v", b, err)
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
				fail("durable epoch %d after wedge, want last acked %d (a failed fsync advanced the durable boundary)",
					st.DurableEpoch, lastAcked)
			}
			if h, _ := d.StorageHealth(); h.State != StorageReadOnly {
				fail("storage state %v after wedge, want read-only", h.State)
			}
			// The disk "recovers" — and the wedge must not.
			inj.Clear()
			if err := d.Append(scheduleBatch(seed, quota+1)); !errors.Is(err, ErrReadOnly) {
				fail("post-wedge append on a healthy disk returned %v, want ErrReadOnly", err)
			}
			d.Abort()
		} else {
			if h, _ := d.StorageHealth(); h.State == StorageDegraded {
				degradedOnly++ // a checkpoint fault degraded without wedging
			}
			inj.Clear()
			// Half the schedules exit gracefully, half crash-exit; the
			// clean reopen below must cope with both.
			if rng.Intn(2) == 0 {
				if err := d.Close(); err != nil {
					t.Fatalf("schedule %d: close on a healthy disk: %v", i, err)
				}
			} else {
				d.Abort()
			}
		}

		next, err := verifyScheduleRecovery(dir, ops, seed, lastAcked)
		if err != nil {
			t.Fatalf("schedule %d (%d faults injected, wedged=%v): %v", i, inj.Injected(), wedgeErr != nil, err)
		}
		epoch = next
	}
	if wedges == 0 {
		t.Fatalf("no schedule wedged the store in %d rounds; raise the rate or budget", schedules)
	}
	t.Logf("%d rounds, %d faults injected, %d wedges, %d degraded-only, final epoch %d",
		schedules, faults, wedges, degradedOnly, epoch)
}

// verifyScheduleRecovery reopens the store on a healthy disk, checks
// nothing acknowledged was lost, and holds the recovered adjacency to bit
// identity against the dense Definition I.3 product over batches
// [1, recovered epoch]. It returns the recovered epoch.
func verifyScheduleRecovery(dir string, ops semiring.Ops[float64], seed int64, minEpoch uint64) (uint64, error) {
	d, err := Open(dir, ops, 1, DurableOptions[float64]{})
	if err != nil {
		return 0, fmt.Errorf("recovery failed: %w", err)
	}
	defer d.Close()
	epoch := d.Durability()[0].Epoch
	if epoch < minEpoch {
		return 0, fmt.Errorf("LOST ACKNOWLEDGED DATA: recovered epoch %d < last acked %d", epoch, minEpoch)
	}
	var outT, inT []assoc.Triple[float64]
	for b := uint64(1); b <= epoch; b++ {
		for _, e := range scheduleBatch(seed, b) {
			outT = append(outT, assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out})
			inT = append(inT, assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In})
		}
	}
	want, err := assoc.MulDense(assoc.FromTriples(outT, nil).Transpose(), assoc.FromTriples(inT, nil), ops)
	if err != nil {
		return 0, err
	}
	snap, err := d.Snapshot()
	if err != nil {
		return 0, err
	}
	bitEqual := func(a, b float64) bool { return a == b }
	if diff := assoc.Diff(want, snap.Adjacency, bitEqual, value.FormatFloat); diff != "" {
		return 0, fmt.Errorf("recovered adjacency diverges from the dense oracle at epoch %d: %s", epoch, diff)
	}
	return epoch, nil
}
