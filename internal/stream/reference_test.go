package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

// referenceLog is the edge log as the view held it before generated keys
// and unit weights became implicit: every key a string, every value
// present, the endpoints by name. Its append is the key discipline of
// that View.appendLocked, kept line for line — generated keys formatted
// into one buffer, the reseed test and the order checks on strings — so
// that the run-and-reference arithmetic of the live column has something
// spelled out to agree with.
type referenceLog struct {
	one        float64
	keys       []string
	srcs, dsts []string
	out, in    []float64
	autoSeq    int
	autoBase   string
}

func (r *referenceLog) append(edges []Edge[float64]) error {
	n0 := len(r.keys)
	last := ""
	if n0 > 0 {
		last = r.keys[n0-1]
	}
	base, seq := r.autoBase, r.autoSeq
	var autoBuf []byte
	var autoEnd []int
	for i := range edges {
		if edges[i].Key != "" {
			continue
		}
		if base == "" {
			base = "e"
		}
		start := len(autoBuf)
		autoBuf = append(autoBuf, fmt.Sprintf("%s%012d", base, seq+i)...)
		if len(autoEnd) == 0 && n0 > 0 && string(autoBuf[start:]) <= last {
			base, seq = last+"+", -i
			autoBuf = append(autoBuf[:start], fmt.Sprintf("%s%012d", base, 0)...)
		}
		autoEnd = append(autoEnd, len(autoBuf))
	}
	auto, autoAt := string(autoBuf), 0

	var rowKeys []string
	prev := ""
	for i, e := range edges {
		key := e.Key
		if key == "" {
			key, autoAt, autoEnd = auto[autoAt:autoEnd[0]], autoEnd[0], autoEnd[1:]
		}
		if i > 0 && key <= prev {
			return fmt.Errorf("stream: batch edge keys not strictly increasing at %d: %q <= %q", i, key, prev)
		}
		prev = key
		rowKeys = append(rowKeys, key)
	}
	if n0 > 0 && rowKeys[0] <= last {
		return fmt.Errorf("stream: batch key %q does not sort after the log's last key %q", rowKeys[0], last)
	}
	for i, e := range edges {
		ov, iv := e.Out, e.In
		if !e.HasOut {
			ov = r.one
		}
		if !e.HasIn {
			iv = r.one
		}
		r.keys = append(r.keys, rowKeys[i])
		r.srcs, r.dsts = append(r.srcs, e.Src), append(r.dsts, e.Dst)
		r.out, r.in = append(r.out, ov), append(r.in, iv)
	}
	r.autoBase, r.autoSeq = base, seq+len(edges)
	return nil
}

// arrays builds Eout and Ein from the first n entries, through nothing
// the view's own build uses.
func (r *referenceLog) arrays(n int) (eout, ein *assoc.Array[float64]) {
	outT, inT := make([]assoc.Triple[float64], n), make([]assoc.Triple[float64], n)
	for i := range outT {
		outT[i] = assoc.Triple[float64]{Row: r.keys[i], Col: r.srcs[i], Val: r.out[i]}
		inT[i] = assoc.Triple[float64]{Row: r.keys[i], Col: r.dsts[i], Val: r.in[i]}
	}
	return assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil)
}

// sameBits is the comparison the log must survive: −0.0 is not 0.0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// logSubject is the log under test: a bare view reopened through its
// checkpoint image, or — dir set — the one shard of a durable store,
// reopened from its directory with or without a checkpoint first (so the
// WAL replays the rest).
type logSubject struct {
	t   *testing.T
	ops semiring.Ops[float64]
	dir string
	st  *Store[float64]
	v   *View[float64]
}

func (s *logSubject) open() {
	st, err := Open(s.dir, s.ops, 1, Options{}, DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		s.t.Fatalf("open: %v", err)
	}
	s.st, s.v = st, st.parts[0].v
}

func (s *logSubject) append(edges []Edge[float64]) error {
	if s.st != nil {
		return s.st.Append(edges)
	}
	return s.v.Append(edges)
}

func (s *logSubject) reopen(checkpoint bool) {
	if s.st == nil {
		v, err := readImage(writeImage(s.t, s.v), s.ops)
		if err != nil {
			s.t.Fatalf("reopen through the image: %v", err)
		}
		s.v = v
		return
	}
	if checkpoint {
		if err := s.st.Checkpoint(); err != nil {
			s.t.Fatalf("checkpoint: %v", err)
		}
	}
	if err := s.st.Close(); err != nil {
		s.t.Fatalf("close: %v", err)
	}
	s.open()
}

// checkLogs compares a snapshot's Logs() with the reference's first n
// entries: key sets and every value, bit for bit.
func checkLogs(t *testing.T, what string, sn Snapshot[float64], ref *referenceLog, n int) {
	t.Helper()
	eout, ein, err := sn.Logs()
	if err != nil {
		t.Fatalf("%s: Logs: %v", what, err)
	}
	if sn.Edges != n {
		t.Fatalf("%s: snapshot holds %d edges, the reference %d", what, sn.Edges, n)
	}
	wantOut, wantIn := ref.arrays(n)
	if d := assoc.Diff(eout, wantOut, sameBits, nil); d != "" {
		t.Fatalf("%s: Eout: %s", what, d)
	}
	if d := assoc.Diff(ein, wantIn, sameBits, nil); d != "" {
		t.Fatalf("%s: Ein: %s", what, d)
	}
}

// logProgram is what one seed draws: how batches are keyed and weighted,
// and how the log starts.
type logProgram struct {
	keying    int // 0 generated, 1 given, 2 both within a batch, 3 any of those per batch
	weighting int // 0 never, 1 always, 2 not before batch lateFrom, 3 per edge and side
	lateFrom  int
	bootstrap bool // start from FromIncidence over given keys, then generate
	durable   bool
}

// The implicit log against the spelled-out one. Seeded programs of
// appends — generated, given and mixed keys; weighted, unweighted and
// first-weight-arrives-late batches — with batches failed at each
// failpoint, snapshots held across later appends, reopens through a
// checkpoint (and, for the durable subject, a WAL replay) and a generator
// reseeded past given keys: at every check, and for every held snapshot
// at the end, Logs() equals the reference's arrays, key sets included,
// under every registered operator pair.
func TestLogMatchesSpelledOutReference(t *testing.T) {
	sites := []string{"append:interned", "append:logged", "commit:counted"}
	weights := func(one, zero float64) []float64 {
		return []float64{one, zero, 2, 0.5, math.Copysign(0, -1), 3}
	}
	var accepted, mixed, rejected, failed, reopened, held, reseeded int
	for _, entry := range semiring.Registry() {
		ops := entry.Ops
		for seed := int64(0); seed < 24; seed++ {
			r := rand.New(rand.NewSource(seed))
			prog := logProgram{
				keying: int(seed) % 4, weighting: int(seed/4) % 4, lateFrom: 3 + r.Intn(6),
				bootstrap: seed%6 == 5, durable: seed%2 == 0,
			}
			what := fmt.Sprintf("%s seed %d %+v", ops.Name, seed, prog)
			ref := &referenceLog{one: ops.One}
			sub := &logSubject{t: t, ops: ops}
			given := 0
			givenKey := func() string { given++; return fmt.Sprintf("k%06d", given) }
			vertex := func() string { return fmt.Sprintf("v%02d", r.Intn(12)) }
			ws := weights(ops.One, ops.Zero)

			switch {
			case prog.bootstrap:
				boot := make([]Edge[float64], 5)
				for i := range boot {
					boot[i] = Weighted(givenKey(), vertex(), vertex(), ws[r.Intn(len(ws))], ws[r.Intn(len(ws))])
				}
				if err := ref.append(boot); err != nil {
					t.Fatal(err)
				}
				ref.autoBase, ref.autoSeq = "", 0 // a bootstrap is not a batch: the generator has not moved
				eout, ein := ref.arrays(len(boot))
				v, err := FromIncidence(eout, ein, ops, Options{})
				if err != nil {
					t.Fatalf("%s: bootstrap: %v", what, err)
				}
				sub.v = v
			case prog.durable:
				sub.dir = t.TempDir()
				sub.open()
			default:
				sub.v = NewView(ops, Options{})
			}

			type heldSnap struct {
				sn Snapshot[float64]
				n  int
			}
			var olds []heldSnap
			for step := 0; step < 40; step++ {
				switch op := r.Intn(20); {
				case op < 13: // append, one time in five into a failpoint
					keying := prog.keying
					if keying == 3 {
						keying = r.Intn(3)
					}
					base, seq := ref.autoBase, ref.autoSeq
					if base == "" {
						base = "e"
					}
					batch := make([]Edge[float64], 1+r.Intn(6))
					for i := range batch {
						e := Edge[float64]{Src: vertex(), Dst: vertex()}
						switch {
						case keying == 1:
							e.Key = givenKey()
						case keying == 2 && r.Intn(2) == 0:
							// Between the generated keys of positions i−1 and
							// i+1, while the generator is not reseeded.
							e.Key = fmt.Sprintf("%s%012dx", base, seq+i)
						}
						weigh := prog.weighting == 1 || prog.weighting == 2 && step >= prog.lateFrom
						if weigh || prog.weighting == 3 && r.Intn(3) == 0 {
							e.Out, e.HasOut = ws[r.Intn(len(ws))], true
						}
						if weigh || prog.weighting == 3 && r.Intn(3) == 0 {
							e.In, e.HasIn = ws[r.Intn(len(ws))], true
						}
						batch[i] = e
					}
					if r.Intn(5) == 0 {
						site, fired := sites[r.Intn(len(sites))], false
						sub.v.failpoint = func(s string) error {
							if s != site {
								return nil
							}
							fired = true
							return fmt.Errorf("injected at %s", s)
						}
						before := fingerprint(sub.v)
						err := sub.append(batch)
						sub.v.failpoint = nil
						if fired != (err != nil && ref.clone().append(batch) == nil) {
							t.Fatalf("%s: step %d: failpoint %s fired=%v, append: %v", what, step, site, fired, err)
						}
						if err == nil || fingerprint(sub.v) != before {
							t.Fatalf("%s: step %d: batch failed at %s left %+v, was %+v (%v)", what, step, site, fingerprint(sub.v), before, err)
						}
						failed++
						continue
					}
					oldBase := base
					want, got := ref.append(batch), sub.append(batch)
					if (want == nil) != (got == nil) || want != nil && want.Error() != got.Error() {
						t.Fatalf("%s: step %d: append of %v: %v, the reference: %v", what, step, batch, got, want)
					}
					if want != nil {
						rejected++
						continue
					}
					accepted++
					anyGiven, anyGenerated := false, false
					for _, e := range batch {
						anyGiven, anyGenerated = anyGiven || e.Key != "", anyGenerated || e.Key == ""
					}
					if anyGiven && anyGenerated {
						mixed++
					}
					if ref.autoBase != "" && ref.autoBase != oldBase {
						reseeded++
					}
				case op < 15:
					sn, err := sub.v.Snapshot()
					if err != nil {
						t.Fatalf("%s: step %d: snapshot: %v", what, step, err)
					}
					olds = append(olds, heldSnap{sn, len(ref.keys)})
					held++
				case op < 18:
					sub.reopen(r.Intn(2) == 0)
					if sub.v.autoSeq != ref.autoSeq || sub.v.autoBase != ref.autoBase {
						t.Fatalf("%s: step %d: reopened generator at (%q, %d), the reference at (%q, %d)", what, step, sub.v.autoBase, sub.v.autoSeq, ref.autoBase, ref.autoSeq)
					}
					reopened++
				default:
					sn, err := sub.v.Snapshot()
					if err != nil {
						t.Fatalf("%s: step %d: snapshot: %v", what, step, err)
					}
					checkLogs(t, fmt.Sprintf("%s: step %d", what, step), sn, ref, len(ref.keys))
				}
			}
			sn, err := sub.v.Snapshot()
			if err != nil {
				t.Fatalf("%s: final snapshot: %v", what, err)
			}
			checkLogs(t, what+": final", sn, ref, len(ref.keys))
			for i, old := range olds {
				checkLogs(t, fmt.Sprintf("%s: snapshot %d, held since %d edges", what, i, old.n), old.sn, ref, old.n)
			}
			if sub.st != nil {
				if err := sub.st.Close(); err != nil {
					t.Fatalf("%s: close: %v", what, err)
				}
			}
		}
	}
	t.Logf("%d batches accepted (%d of both generated and given keys), %d refused by both, %d failed at a failpoint, %d generator reseeds, %d reopens, %d snapshots held", accepted, mixed, rejected, failed, reseeded, reopened, held)
	if accepted < 1000 || mixed < 100 || rejected == 0 || failed < 100 || reseeded < 20 || reopened < 100 || held < 100 {
		t.Errorf("the programs no longer cover what they are for")
	}
}

func (r *referenceLog) clone() *referenceLog {
	c := *r
	return &c
}

// A value column comes into being with the first edge that carries a
// weight on its side: One for every edge before it, in a new slice, so a
// snapshot pinned earlier keeps reading its own absent column — and the
// other side, still unweighted, keeps having none.
func TestFirstWeightArrivesLate(t *testing.T) {
	ops := plusTimes(t)
	v := NewView(ops, Options{})
	unit := []Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}, {Src: "a", Dst: "c"}}
	for i := 0; i < 2; i++ {
		if err := v.Append(unit); err != nil {
			t.Fatal(err)
		}
	}
	old := mustSnap(t, v)
	if v.out != nil || v.in != nil || len(v.keys.spelled) != 0 || len(v.keys.runs) != 1 {
		t.Fatalf("six unkeyed unit edges hold %d and %d values, %d keys, %d runs", len(v.out), len(v.in), len(v.keys.spelled), len(v.keys.runs))
	}
	if err := v.Append([]Edge[float64]{{Src: "c", Dst: "a"}, {Src: "c", Dst: "b", Out: 0, HasOut: true}}); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 1, 1, 1, 1, 1, 1, 0}; !slices.Equal(v.out, want) || v.in != nil {
		t.Fatalf("after the first weight: out %v (want %v), in %v (want none)", v.out, want, v.in)
	}
	if old.log.out != nil {
		t.Fatalf("the earlier snapshot's column changed under it: %v", old.log.out)
	}
	ones := func(a *assoc.Array[float64], n int) bool {
		ok := a.RowKeys().Len() == n && a.NNZ() == n
		a.Iterate(func(_, _ string, x float64) { ok = ok && x == 1 })
		return ok
	}
	if eout, ein := mustLogs(t, old); !ones(eout, 6) || !ones(ein, 6) {
		t.Errorf("the earlier snapshot's Logs() are not six unit rows:\n%v\n%v", eout.Triples(), ein.Triples())
	}
	eout, ein := mustLogs(t, mustSnap(t, v))
	if x, ok := eout.At("e000000000007", "c"); !ok || x != 0 || !ones(ein, 8) || eout.NNZ() != 8 {
		t.Errorf("Logs() after the first weight: Eout %v, Ein %v", eout.Triples(), ein.Triples())
	}
}

// referenceOwnerSnapshot is Store.OwnerSnapshot as it was before a point
// read had a pin of its own: fold the owning shard, hand out its whole
// Snapshot. What the point pin answers over the unfolded suffix is checked
// against the array this one folds.
func referenceOwnerSnapshot[V any](s *Store[V], src string) (Snapshot[V], []int, error) {
	owner := s.ShardFor(src)
	sn, err := s.parts[owner].v.Snapshot()
	if err != nil {
		return Snapshot[V]{}, nil, fmt.Errorf("stream: shard %d: %w", owner, err)
	}
	epochs := make([]int, len(s.parts))
	for i, p := range s.parts {
		if i != owner {
			epochs[i] = int(p.epoch())
		}
	}
	epochs[owner] = sn.Epoch
	return sn, epochs, nil
}
