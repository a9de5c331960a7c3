package stream

import (
	"cmp"
	"slices"
	"strings"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
)

// PointSnapshot is a view pinned for point reads: one cell (At) or one
// row (Row), answered from main ⊕ the log's unfolded suffix without
// folding either. It is the second of a view's two pins. Snapshot, the
// whole-array pin, folds the suffix so that Adjacency is one array;
// Point never does while the suffix stays under the threshold beside
// foldScratchKeep: it captures main and the slice headers of the
// suffix's columns — the log is append-only past a captured length, a
// value column that comes into being later is a new slice, and
// mainShared keeps a later fold from merging in place — so pinning costs
// O(1), allocates nothing, syncs no universe, and a read-your-write costs
// a scan of the few edges written since the last fold instead of a copy
// of the shard.
//
// The answer is the cell the fold would have stored, bit for bit and for
// any ⊕: the suffix's contributions to the cell are ⊗-multiplied and
// ⊕-folded in log order (sparse.FoldUnitRows' fold), a fold equal to the
// algebra's Zero is dropped as that kernel prunes it, and what is left
// meets main's cell with MAIN ON THE LEFT — main holds the earlier edge
// keys, so fold order is kept and only the grouping is the merge's
// (sparse.EWiseAddInto), the one re-association a view makes; a result
// equal to Zero is an absent cell. A point read is therefore exactly as
// exact as the Snapshot that follows it.
type PointSnapshot[V any] struct {
	// Epoch counts the batches the answers reflect.
	Epoch int
	// Folded reports that the pin found the suffix past the threshold and
	// folded it first.
	Folded bool

	view *View[V] // ops and the interners, fixed at construction; nil with an empty suffix
	main *assoc.Array[V]
	// The suffix log[folded:n], by slice header.
	//adjlint:cow
	srcID, dstID []int32
	//adjlint:cow
	out, in []V // nil: every entry is ops.One
}

// Point pins the view for point reads. It folds first only when the
// unfolded suffix outgrew max(foldScratchKeep, main.NNZ()/pointFoldShare)
// edges — where scanning it on every read would cost more than folding it
// once.
func (v *View[V]) Point() (PointSnapshot[V], error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	folded := false
	if len(v.srcID)-v.folded > max(foldScratchKeep, v.main.NNZ()/pointFoldShare) {
		if err := v.materializeLocked(); err != nil {
			return PointSnapshot[V]{}, err
		}
		folded = true
	}
	v.mainShared = true
	from, n := v.folded, len(v.srcID)
	p := PointSnapshot[V]{
		Epoch: int(v.epoch.Load()), Folded: folded,
		view: v, main: v.main,
		srcID: v.srcID[from:n:n], dstID: v.dstID[from:n:n],
	}
	if v.out != nil {
		p.out = v.out[from:n:n]
	}
	if v.in != nil {
		p.in = v.in[from:n:n]
	}
	return p, nil
}

// Point is the snapshot as a point read sees it: the folded adjacency
// and an empty suffix.
func (s Snapshot[V]) Point() PointSnapshot[V] {
	return PointSnapshot[V]{Epoch: s.Epoch, main: s.Adjacency}
}

// Suffix is the number of log edges read beside main: 0 on a view folded
// up to its log, where a read costs what it costs on a Snapshot.
func (p PointSnapshot[V]) Suffix() int { return len(p.srcID) }

// At returns the value of cell (src, dst) and whether it is stored.
func (p PointSnapshot[V]) At(src, dst string) (V, bool) {
	val, stored := p.main.At(src, dst)
	if len(p.srcID) == 0 {
		return val, stored
	}
	// A key with no id was never appended: it cannot be in the suffix.
	sid, ok := p.view.srcIn.Lookup(src)
	if !ok {
		return val, stored
	}
	did, ok := p.view.dstIn.Lookup(dst)
	if !ok {
		return val, stored
	}
	var fold V
	found := false
	for k, s := range p.srcID {
		if s != sid || p.dstID[k] != did {
			continue
		}
		if prod := p.product(k); found {
			fold = p.view.ops.Add(fold, prod)
		} else {
			fold, found = prod, true
		}
	}
	if !found {
		return val, stored
	}
	return meet(&p.view.ops, val, stored, fold)
}

// product is the suffix's k-th edge as the fold takes it: Eout ⊗ Ein,
// One for a value column the log does not hold.
func (p PointSnapshot[V]) product(k int) V {
	ops := &p.view.ops
	out, in := ops.One, ops.One
	if p.out != nil {
		out = p.out[k]
	}
	if p.in != nil {
		in = p.in[k]
	}
	return ops.Mul(out, in)
}

// meet is main's cell ⊕ the suffix's fold for that cell, as the fold and
// its merge would have left it: a fold equal to Zero was pruned before
// the merge and leaves main's cell as it is, main goes on the left, and a
// result equal to Zero is not stored.
func meet[V any](ops *semiring.Ops[V], val V, stored bool, fold V) (V, bool) {
	switch {
	case ops.IsZero(fold):
		return val, stored
	case !stored:
		return fold, true
	}
	if s := ops.Add(val, fold); !ops.IsZero(s) {
		return s, true
	}
	var absent V
	return absent, false
}

// suffixCell is one cell of a row, folded over the suffix.
type suffixCell[V any] struct {
	did  int32
	key  string
	fold V
}

// suffixRow folds the suffix's contributions to src's row, one cell per
// destination, in destination key order; nil when there are none.
func (p PointSnapshot[V]) suffixRow(src string) []suffixCell[V] {
	if len(p.srcID) == 0 {
		return nil
	}
	sid, ok := p.view.srcIn.Lookup(src)
	if !ok {
		return nil
	}
	var cells []suffixCell[V]
	for k, s := range p.srcID {
		if s == sid {
			cells = append(cells, suffixCell[V]{did: p.dstID[k], fold: p.product(k)})
		}
	}
	// Stable: a cell's contributions stay in log order, the fold's order.
	slices.SortStableFunc(cells, func(a, b suffixCell[V]) int { return cmp.Compare(a.did, b.did) })
	n := 0
	for i := 0; i < len(cells); n++ {
		c := cells[i]
		for i++; i < len(cells) && cells[i].did == c.did; i++ {
			c.fold = p.view.ops.Add(c.fold, cells[i].fold)
		}
		c.key = p.view.dstIn.Key(c.did)
		cells[n] = c
	}
	cells = cells[:n]
	slices.SortFunc(cells, func(a, b suffixCell[V]) int { return strings.Compare(a.key, b.key) })
	return cells
}

// Row calls yield for every stored cell of src's row in ascending
// destination key order — main's CSR row two-way merged with the suffix's
// few cells; a source that holds no row yields nothing.
func (p PointSnapshot[V]) Row(src string, yield func(dst string, v V)) {
	var cols []int32
	var vals []V
	if i, ok := p.main.RowKeys().Index(src); ok {
		cols, vals = p.main.Matrix().Row(i)
	}
	colKeys := p.main.ColKeys()
	q := 0
	for _, c := range p.suffixRow(src) {
		var key string
		for ; q < len(cols); q++ {
			if key = colKeys.Key(int(cols[q])); key >= c.key {
				break
			}
			yield(key, vals[q])
		}
		var val V
		stored := q < len(cols) && key == c.key
		if stored {
			val = vals[q]
			q++
		}
		if v, ok := meet(&p.view.ops, val, stored, c.fold); ok {
			yield(c.key, v)
		}
	}
	for ; q < len(cols); q++ {
		yield(colKeys.Key(int(cols[q])), vals[q])
	}
}
