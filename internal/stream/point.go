package stream

import (
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
// any ⊕: the fold's own left fold — main's value where main stores the
// cell, else the suffix's first ⊗-product, then ⊕ each later product
// onto it in log order (sparse.EWiseAddInto over the suffix's runs); a
// result equal to Zero is an absent cell. A point read therefore answers what the
// Snapshot that follows it stores, and that is the batch construction's
// cell.
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
	touched := false
	for k, s := range p.srcID {
		if s == sid && p.dstID[k] == did {
			val, stored = foldStep(&p.view.ops, val, stored, p.product(k))
			touched = true
		}
	}
	if touched && p.view.ops.IsZero(val) {
		var absent V
		return absent, false
	}
	return val, stored
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

// foldStep is one step of a cell's left fold: the first contribution is
// the cell's value, each later one is ⊕-ed onto it from the right.
func foldStep[V any](ops *semiring.Ops[V], acc V, started bool, prod V) (V, bool) {
	if !started {
		return prod, true
	}
	return ops.Add(acc, prod), true
}

// suffixCell is one of the suffix's contributions to a row.
type suffixCell[V any] struct {
	key  string
	prod V
}

// suffixRow returns the suffix's contributions to src's row in
// destination key order, a cell's in log order; nil when there are none.
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
			cells = append(cells, suffixCell[V]{key: p.view.dstIn.Key(p.dstID[k]), prod: p.product(k)})
		}
	}
	// Stable: a cell's contributions stay in log order, the fold's order.
	slices.SortStableFunc(cells, func(a, b suffixCell[V]) int { return strings.Compare(a.key, b.key) })
	return cells
}

// Row calls yield for every stored cell of src's row in ascending
// destination key order — main's CSR row two-way merged with the cells
// the suffix touches, each folded from main's value on; a source that
// holds no row yields nothing.
func (p PointSnapshot[V]) Row(src string, yield func(dst string, v V)) {
	var cols []int32
	var vals []V
	if i, ok := p.main.RowKeys().Index(src); ok {
		cols, vals = p.main.Matrix().Row(i)
	}
	colKeys := p.main.ColKeys()
	q := 0
	cells := p.suffixRow(src)
	for i := 0; i < len(cells); {
		ck := cells[i].key
		var key string
		for ; q < len(cols); q++ {
			if key = colKeys.Key(int(cols[q])); key >= ck {
				break
			}
			yield(key, vals[q])
		}
		var val V
		stored := q < len(cols) && key == ck
		if stored {
			val = vals[q]
			q++
		}
		for ; i < len(cells) && cells[i].key == ck; i++ {
			val, stored = foldStep(&p.view.ops, val, stored, cells[i].prod)
		}
		if !p.view.ops.IsZero(val) {
			yield(ck, val)
		}
	}
	for ; q < len(cols); q++ {
		yield(colKeys.Key(int(cols[q])), vals[q])
	}
}
