package stream

import (
	"errors"
	"fmt"
	"testing"

	"adjarray/internal/iofault"
	"adjarray/internal/keys"
	"adjarray/internal/wal"
)

// The atomicity contract: a batch that fails mid-append leaves the view
// bit-identical to the state before the call, and the SAME batch (or
// any other valid one) still appends cleanly afterwards. Each failpoint
// site below aborts the append at a different depth — after the
// endpoints were interned, after the edges landed in the log, after the
// backlog and the counters moved — and every one must roll back
// completely, for a batch over known vertices and for one that
// introduces vertices alike (they take the same path).

// atomicSeed returns the base batches every subject/control pair starts
// from: one that introduces every vertex it names and one entirely over
// known vertices.
func atomicSeed() [][]Edge[float64] {
	return [][]Edge[float64]{
		{
			Weighted("e01", "s1", "t1", 1.0, 2.0),
			Weighted("e02", "s2", "t2", 3.0, 4.0),
			Weighted("e03", "s3", "t1", 5.0, 6.0),
		},
		{
			Weighted("e04", "s1", "t2", 7.0, 8.0),
			Weighted("e05", "s3", "t3", 9.0, 1.0),
		},
	}
}

// stateFingerprint is the directly observable pre-append state a failed
// append must leave untouched.
type stateFingerprint struct {
	edges, epoch   int
	autoSeq        int
	nIDs, nVals    int
	synced, folded int
}

func fingerprint(v *View[float64]) stateFingerprint {
	return stateFingerprint{
		edges: len(v.srcID), epoch: int(v.epoch.Load()),
		autoSeq: v.autoSeq,
		nIDs:    len(v.srcID) + len(v.dstID), nVals: len(v.out) + len(v.in),
		synced: v.synced, folded: v.folded,
	}
}

func TestAppendRollsBackAtEveryFailpoint(t *testing.T) {
	ops := plusTimes(t)
	// Poison batches: one reuses seeded vertices, the other introduces
	// new ones on both sides — whose interner ids outlive the rollback as
	// orphans the retry and the next universe sync must absorb.
	poisonKnown := []Edge[float64]{
		Weighted("e06", "s2", "t1", 2.5, 3.5),
		Weighted("e07", "s3", "t2", 4.5, 5.5),
	}
	poisonNew := []Edge[float64]{
		Weighted("e06", "s9", "t1", 2.5, 3.5),
		Weighted("e07", "s2", "t9", 4.5, 5.5),
	}
	follow := []Edge[float64]{
		Weighted("e08", "s1", "t3", 6.5, 7.5),
		Weighted("e09", "s9", "t9", 8.5, 9.5),
	}
	// sidestep never names the poison batch's new vertices: applied in
	// place of the retry it leaves their interner ids orphaned for good,
	// and the universe the next sync builds must not contain them.
	sidestep := [][]Edge[float64]{{
		Weighted("e06", "s0", "t1", 1.5, 2.5),
		Weighted("e07", "s25", "t5", 3.5, 4.5),
	}, {
		Weighted("e08", "s1", "t3", 6.5, 7.5),
		Weighted("e09", "s25", "t0", 8.5, 9.5),
	}}
	type failCase struct {
		site   string
		poison []Edge[float64]
		after  [][]Edge[float64]
	}
	var cases []failCase
	for _, c := range []failCase{
		{site: "append:interned", poison: poisonKnown},
		{site: "append:logged", poison: poisonKnown},
		{site: "commit:counted", poison: poisonKnown},
		{site: "append:interned", poison: poisonNew},
		{site: "append:logged", poison: poisonNew},
		{site: "commit:counted", poison: poisonNew},
	} {
		cases = append(cases,
			failCase{c.site, c.poison, [][]Edge[float64]{c.poison, follow}},
			failCase{c.site, c.poison, sidestep})
	}
	for i, tc := range cases {
		subject := NewView(ops)
		control := NewView(ops)
		for _, b := range atomicSeed() {
			if err := subject.Append(b); err != nil {
				t.Fatal(err)
			}
			if err := control.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		before := fingerprint(subject)

		boom := errors.New("injected failure")
		fired := 0
		subject.failpoint = func(site string) error {
			if site == tc.site {
				fired++
				return boom
			}
			return nil
		}
		if err := subject.Append(tc.poison); !errors.Is(err, boom) {
			t.Fatalf("case %d (%s): Append error = %v, want the injected failure", i, tc.site, err)
		}
		if fired != 1 {
			t.Fatalf("case %d (%s): failpoint fired %d times — the batch did not take the intended path", i, tc.site, fired)
		}
		subject.failpoint = nil

		if got := fingerprint(subject); got != before {
			t.Fatalf("case %d (%s): state after failed append %+v, want %+v", i, tc.site, got, before)
		}

		// The identical batch must now succeed (interner orphans from the
		// rolled-back attempt included), so must a different one, and
		// everything downstream must be indistinguishable from a view
		// that never saw the failure.
		for _, b := range tc.after {
			if err := subject.Append(b); err != nil {
				t.Fatalf("case %d (%s): retry after rollback: %v", i, tc.site, err)
			}
			if err := control.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		snapEqual(t, mustSnap(t, subject), mustSnap(t, control), tc.site)
	}
}

// A batch the interner refuses — a key past the 4 GiB its slab offsets
// reach or past 2³¹−1 keys, which once panicked under the view lock — is
// refused whole: Append returns the refusal (keys.ErrTooManyKeys), the
// view is as it was, and the batch's new vertices, interned up to the
// refused key, are orphans no later read sees. Neither bound can be
// reached here without allocating it (keys.TestInternerRefusesPastItsBounds
// reaches both on the interner), so the refusal is returned where the
// interning ends, as the destinations' InternBatch returns it.
func TestRefusedInternLeavesTheViewUnchanged(t *testing.T) {
	ops := plusTimes(t)
	subject, control := NewView(ops), NewView(ops)
	for _, b := range atomicSeed() {
		if err := subject.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := control.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	before := fingerprint(subject)
	subject.failpoint = func(site string) error {
		if site == "append:interned" {
			return fmt.Errorf("stream: batch destinations: keys: 2147483648 keys %w", keys.ErrTooManyKeys)
		}
		return nil
	}
	refused := []Edge[float64]{Weighted("e06", "s9", "t9", 1.0, 1.0), Weighted("e07", "s1", "t8", 1.0, 1.0)}
	if err := subject.Append(refused); !errors.Is(err, keys.ErrTooManyKeys) {
		t.Fatalf("Append = %v; want the interner's refusal", err)
	}
	subject.failpoint = nil
	if got := fingerprint(subject); got != before {
		t.Fatalf("the refused batch moved the view: %+v, want %+v", got, before)
	}
	next := []Edge[float64]{Weighted("e06", "s1", "t3", 2.0, 2.0)}
	if err := subject.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := control.Append(next); err != nil {
		t.Fatal(err)
	}
	snapEqual(t, mustSnap(t, subject), mustSnap(t, control), "after a refused batch")
}

// A mid-batch failure under the durable wrapper must keep the WAL
// aligned with the view: the rejected batch writes no record, the
// retried batch writes exactly one, and recovery replays to the same
// state as a run that never failed.
func TestDurableAppendRollbackKeepsLogAligned(t *testing.T) {
	ops := plusTimes(t)
	batches := durableBatches(77, 4, 5)
	dir := t.TempDir()

	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:2] {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}

	boom := errors.New("injected failure")
	d.parts[0].v.failpoint = func(site string) error {
		if site == "commit:counted" {
			return boom
		}
		return nil
	}
	if err := d.Append(batches[2]); !errors.Is(err, boom) {
		t.Fatalf("durable Append error = %v, want the injected failure", err)
	}
	d.parts[0].v.failpoint = nil

	st := d.Durability()[0]
	if st.Epoch != 2 || st.DurableEpoch != 2 || st.WALLag != 0 {
		t.Fatalf("after rejected batch: epoch %d durable %d lag %d, want 2/2/0", st.Epoch, st.DurableEpoch, st.WALLag)
	}

	for _, b := range batches[2:] {
		if err := d.Append(b); err != nil {
			t.Fatalf("retry after rollback: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Recovery()[0]; got.Replayed != 4 || got.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want 4 replayed records and a clean tail", got)
	}
	got := flatSnap(t, re)
	snapEqual(t, got, controlView(t, batches, 4, ops), "recovered after mid-run rollback")

	// The log itself must hold exactly one record per accepted batch.
	var seqs []uint64
	if _, err := wal.ReplayFS(iofault.OS, dir, 0, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 {
		t.Fatalf("log holds %d records, want 4 (one per accepted batch): %v", len(seqs), seqs)
	}
}
