package conformance

import (
	"fmt"
	"math"
	"os"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/stream"
	"adjarray/internal/value"
	"adjarray/internal/wal"
)

// Path is one way of computing A = Eoutᵀ ⊕.⊗ Ein. A Path listed in
// builtinPaths is covered by the differential executor, the quick-check
// test and the fuzz targets with no further wiring.
type Path struct {
	// Name identifies the path in divergence reports.
	Name string
	// Resumes marks paths that fold an instance's edges in parts — the
	// stream paths, a part per fold — each part starting a cell from what
	// the earlier parts stored. A cell that folded to exactly Zero is not
	// stored, so such a path equals the one fold where Zero is a
	// ⊕-identity on the instance's products, and the executor compares it
	// there (zeroIsIdentityOn); associativity does not enter.
	Resumes bool
	// Build constructs the adjacency array from the instance's incidence
	// arrays. inst carries extra driving data some paths need (the
	// stream path replays inst.Splits as separate batches).
	Build func(eout, ein *assoc.Array[float64], ops semiring.Ops[float64], inst Instance) (*assoc.Array[float64], error)
}

// builtinPaths covers the construction paths the repository ships.
func builtinPaths() []Path {
	return []Path{
		{
			// The independent sparse implementation: expansion, stable
			// sort, run fold (sparse.MulMerge) shares no accumulator, no
			// symbolic pass and no scheduling with the engine that
			// computes Compare's reference.
			Name:  "reference-merge",
			Build: buildReferenceMerge,
		},
		{
			// The general engine across spans. FlopFloor -1: conformance
			// instances are tiny, and the default serial-fallback floor
			// would silently route every one of them through the serial
			// kernel — the parallel code path must stay under
			// differential test.
			Name: "parallel",
			Build: func(eout, ein *assoc.Array[float64], ops semiring.Ops[float64], _ Instance) (*assoc.Array[float64], error) {
				opt := assoc.MulOptions{Workers: 2, FlopFloor: -1}
				return assoc.Mul(eout.Transpose(), ein, ops, opt)
			},
		},
		{
			// What construction runs: an instance's arrays are unit-row
			// over one edge key set, so Correlate folds their columns.
			Name: "fold",
			Build: func(eout, ein *assoc.Array[float64], ops semiring.Ops[float64], _ Instance) (*assoc.Array[float64], error) {
				return assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
			},
		},
		{
			Name: "fold-parallel",
			Build: func(eout, ein *assoc.Array[float64], ops semiring.Ops[float64], _ Instance) (*assoc.Array[float64], error) {
				return assoc.Correlate(eout, ein, ops, assoc.MulOptions{Workers: 2, FlopFloor: -1})
			},
		},
		{
			Name:    "stream",
			Resumes: true,
			Build:   buildStream,
		},
		{
			// The goroutine-sharded ingest as a construction path: every
			// batch scatters by source-vertex hash across 3 per-shard views
			// (interleaved per-shard appends — a batch's edges land on
			// different shards in sub-batches), with a gathered snapshot
			// between batches so each boundary pins an epoch vector and
			// forces the per-shard folds. The final adjacency is the gather's
			// checked concatenation of the row-disjoint shards
			// (assoc.ConcatRows). Gates the routing/gather machinery —
			// including the adversarial keys from the generators (unicode,
			// NUL, prefix collisions) flowing through the FNV router —
			// against the dense Definition I.3 oracle.
			Name:    "stream-sharded",
			Resumes: true,
			Build:   buildStreamSharded,
		},
		{
			// The durability round trip as a construction path: every batch
			// goes through a WAL-backed view, the process "crashes" (Abort:
			// no final checkpoint, no final sync), and the adjacency is
			// materialized from the RECOVERED view — checkpoint load plus
			// WAL-tail replay. Gates the whole persistence stack (batch
			// codec, checkpoint codec, interner slabs, CSR encoding,
			// recovery sequencing) against the dense Definition I.3 oracle.
			Name:    "stream-durable-recovered",
			Resumes: true,
			Build:   buildStreamDurableRecovered,
		},
		{
			// The store as a server that is asked nothing but point reads
			// sees it: after every acknowledged batch each row appended so
			// far is read through Store.OwnerSnapshot — main ⊕ the log's
			// unfolded suffix, no fold — and the array those reads spell is
			// held against the construction over the acked prefix (the dense
			// Definition I.3 oracle where the pair is Theorem II.1-compliant
			// on it, the serial engine otherwise). A whole-array Snapshot at
			// every third boundary gives later suffixes a non-empty main to
			// meet. The array returned is the one the last reads spell.
			Name:    "stream-point-read",
			Resumes: true,
			Build:   buildStreamPointRead,
		},
	}
}

func buildReferenceMerge(eout, ein *assoc.Array[float64], ops semiring.Ops[float64], _ Instance) (*assoc.Array[float64], error) {
	if !eout.RowKeys().Equal(ein.RowKeys()) {
		return nil, fmt.Errorf("conformance: incidence arrays disagree on edge keys")
	}
	m, err := sparse.MulMerge(eout.Matrix().Transpose(), ein.Matrix(), ops)
	if err != nil {
		return nil, err
	}
	return assoc.New(eout.ColKeys(), ein.ColKeys(), m)
}

// The incremental paths are configurations of the one stream.Store: one
// shard in memory, three shards in memory, one shard on disk crashed and
// recovered — and, last, two shards read cell by cell without folding.

// buildStream replays the instance through a one-shard store: one
// Append per split segment with a Snapshot between batches, so every
// batch boundary is a fold that continues the cells the last one left —
// the most parts the incremental path can cut an instance into.
func buildStream(_, _ *assoc.Array[float64], ops semiring.Ops[float64], inst Instance) (*assoc.Array[float64], error) {
	return replayStore("", ops, inst, 1, "snapshot")
}

// buildStreamDurableRecovered replays the instance through a durable
// store in a throwaway directory, aborts without the final checkpoint
// or sync, reopens, and materializes from the recovered state.
func buildStreamDurableRecovered(_, _ *assoc.Array[float64], ops semiring.Ops[float64], inst Instance) (*assoc.Array[float64], error) {
	dir, err := os.MkdirTemp("", "adjarray-conformance-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return replayStore(dir, ops, inst, 1, "snapshot")
}

func buildStreamSharded(_, _ *assoc.Array[float64], ops semiring.Ops[float64], inst Instance) (*assoc.Array[float64], error) {
	return replayStore("", ops, inst, 3, "snapshot")
}

// replayStore replays the instance's batches through a store and
// returns the adjacency of its final snapshot. Each Append scatters its
// edges to per-shard sub-batches, and after each one the store is read
// as read says: "snapshot" pins a full epoch vector and folds each
// shard's unfolded log suffix into the materialized level, so the next
// batch folds onto already-folded cells; "point" pins the owner of the
// batch's last edge for a point read, which folds nothing; "none" reads
// nothing. One checkpoint is taken after the first batch;
// with a directory the store is then aborted (no final checkpoint, no
// final sync) and the adjacency comes from the REOPENED store —
// checkpoint load plus WAL-tail replay.
func replayStore(dir string, ops semiring.Ops[float64], inst Instance, shards int, read string) (*assoc.Array[float64], error) {
	// No fsync: the simulated failure is a process exit, not a power
	// cut, so written-but-unsynced records must survive the reopen.
	dopt := stream.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}}
	s, err := stream.Open(dir, ops, shards, dopt)
	if err != nil {
		return nil, err
	}
	defer func() { s.Abort() }()
	err = appendBatches(s, inst, func(nth, cut int) error {
		var err error
		switch read {
		case "snapshot":
			_, err = s.Snapshot()
		case "point":
			_, _, err = s.OwnerSnapshot(inst.Edges[cut-1].Src)
		}
		if err != nil || nth > 1 {
			return err
		}
		return s.Checkpoint()
	})
	if err != nil {
		return nil, err
	}
	if dir != "" {
		s.Abort()
		re, err := stream.Open(dir, ops, shards, dopt)
		if err != nil {
			return nil, err
		}
		s = re
	}
	snap, err := s.Snapshot()
	return snap.Adjacency, err
}

// appendBatches appends the instance to s one split segment at a time
// and calls acked after each Append: nth counts the batches so far, cut
// the edges they hold.
func appendBatches(s *stream.Store[float64], inst Instance, acked func(nth, cut int) error) error {
	prev, nth := 0, 0
	for _, cut := range append(append([]int{}, inst.Splits...), len(inst.Edges)) {
		if cut <= prev {
			continue
		}
		batch := make([]stream.Edge[float64], cut-prev)
		for i, e := range inst.Edges[prev:cut] {
			batch[i] = stream.Weighted(e.Key, e.Src, e.Dst, e.Out, e.In)
		}
		if err := s.Append(batch); err != nil {
			return err
		}
		nth++
		if err := acked(nth, cut); err != nil {
			return err
		}
		prev = cut
	}
	return nil
}

func buildStreamPointRead(_, _ *assoc.Array[float64], ops semiring.Ops[float64], inst Instance) (*assoc.Array[float64], error) {
	s, err := stream.Open("", ops, 2, stream.DurableOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Abort()
	entry, registered := semiring.Lookup(ops.Name)
	got, _ := Instance{}.Incidence() // what no reads spell: the empty array
	err = appendBatches(s, inst, func(nth, cut int) error {
		if nth%3 == 0 {
			if _, err := s.Snapshot(); err != nil {
				return err
			}
		}
		acked := Instance{Edges: inst.Edges[:cut]}
		eout, ein := acked.Incidence()
		var err error
		if got, err = pointReadArray(s, eout.ColKeys(), ein.ColKeys()); err != nil {
			return err
		}
		var want *assoc.Array[float64]
		if registered && oracleEligible(entry, acked) {
			want, err = assoc.MulDense(eout.Transpose(), ein, ops)
		} else {
			want, err = assoc.Mul(eout.Transpose(), ein, ops, assoc.MulOptions{})
		}
		if err != nil {
			return err
		}
		if diff := assoc.Diff(want, got, ops.Equal, value.FormatFloat); diff != "" {
			return fmt.Errorf("point reads after %d acknowledged edges: %s", cut, diff)
		}
		return nil
	})
	return got, err
}

// pointReadArray reads every row of srcs through the point pin of the
// shard that owns it, each cell of a row once more as a cell, and returns
// what the reads spell as an array over srcs × dsts.
func pointReadArray(s *stream.Store[float64], srcs, dsts *keys.Set) (*assoc.Array[float64], error) {
	var cells []assoc.Triple[float64]
	for i := 0; i < srcs.Len(); i++ {
		src := srcs.Key(i)
		pt, _, err := s.OwnerSnapshot(src)
		if err != nil {
			return nil, err
		}
		pt.Row(src, func(dst string, v float64) {
			if at, ok := pt.At(src, dst); !ok || math.Float64bits(at) != math.Float64bits(v) {
				err = fmt.Errorf("row %q holds %q = %v; the cell reads %v, %v", src, dst, v, at, ok)
			}
			cells = append(cells, assoc.Triple[float64]{Row: src, Col: dst, Val: v})
		})
		if err != nil {
			return nil, err
		}
	}
	return assoc.FromTriples(cells, nil).Reindex(srcs, dsts)
}

// PathNames returns the names of the construction paths.
func PathNames() []string {
	ps := builtinPaths()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
