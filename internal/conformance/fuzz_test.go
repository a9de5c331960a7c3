package conformance

import (
	"fmt"
	"os"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// The native fuzz targets drive the same differential executor and laws
// as the quick-check tests, but from coverage-guided byte inputs, so the
// fuzzer can steer instance shapes toward unexplored kernel branches.
// Seed corpora live in testdata/fuzz/<Target>/ and run as ordinary test
// cases under plain `go test`; `go test -fuzz=<Target> -fuzztime=30s`
// explores beyond them.

// decodeEdges maps raw bytes onto an edge list: four bytes per edge
// select the endpoints (from the adversarial unicode vertex pool) and
// the two incidence values (from the pair's non-zero adversarial
// sample).
func decodeEdges(data []byte, weights []float64) []Edge {
	const maxEdges = 48
	n := len(data) / 4
	if n > maxEdges {
		n = maxEdges
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*4 : i*4+4]
		edges = append(edges, Edge{
			Key: fmt.Sprintf("e%03d", i),
			Src: unicodeVertexPool[int(b[0])%len(unicodeVertexPool)],
			Dst: unicodeVertexPool[int(b[1])%len(unicodeVertexPool)],
			Out: weights[int(b[2])%len(weights)],
			In:  weights[int(b[3])%len(weights)],
		})
	}
	return edges
}

// FuzzCorrelate feeds fuzzer-shaped instances through every registered
// construction path for a fuzzer-chosen registry pair. Any divergence
// between paths (or against the dense oracle where it applies) fails.
func FuzzCorrelate(f *testing.F) {
	f.Add(byte(0), byte(1), []byte{})
	f.Add(byte(0), byte(2), []byte{0, 0, 1, 1, 0, 0, 2, 2})
	f.Add(byte(3), byte(1), []byte{1, 2, 3, 4, 2, 1, 4, 3, 1, 1, 5, 5})
	f.Add(byte(7), byte(3), []byte{9, 9, 9, 9, 9, 9, 8, 8, 9, 9, 7, 7, 2, 9, 6, 6})
	f.Fuzz(func(t *testing.T, pair, splitEvery byte, data []byte) {
		entries := semiring.Registry()
		entry := entries[int(pair)%len(entries)]
		weights := nonZeroWeights(entry.AdversarialSample(), entry.Ops)
		inst := Instance{Name: "fuzz", Edges: decodeEdges(data, weights)}
		if k := 1 + int(splitEvery)%5; k < len(inst.Edges) {
			for s := k; s < len(inst.Edges); s += k {
				inst.Splits = append(inst.Splits, s)
			}
		}
		inst.normalize()
		if d := Compare(inst, entry, Paths()); d != nil {
			// Minimize and persist before failing, so a red CI fuzz run
			// ships a replayable shrunk counterexample, not a raw blob.
			d = shrinkDivergence(d, entry, Paths())
			d.Artifact = writeArtifact(os.Getenv("CONFORMANCE_ARTIFACT_DIR"), d)
			t.Fatalf("%s\n%s", d.Error(), d.Instance.Encode())
		}
	})
}

// FuzzStreamAppend drives an incremental view through fuzzer-chosen
// batch boundaries, snapshots and compactions, and checks the final
// state against the one-shot batch construction. Weights are exact
// dyadics, so ⊕ = + is exactly associative and equality MUST hold —
// including for a second guarded view, which must never reject, and for a
// third that is asked point reads between its batches and folds only where
// the fuzzer says: every cell and row read through its point pin at the
// end — main ⊕ whatever suffix the last fold left — must be the batch
// construction's.
func FuzzStreamAppend(f *testing.F) {
	f.Add([]byte{}, byte(1), byte(0))
	f.Add([]byte{0, 0, 1, 1, 0, 0}, byte(1), byte(0xaa))
	f.Add([]byte{1, 2, 0, 2, 1, 1, 3, 3, 2, 1, 2, 3}, byte(2), byte(0x0f))
	f.Fuzz(func(t *testing.T, data []byte, batchSize, opsMask byte) {
		ops := semiring.PlusTimes()
		weights := []float64{1, 2, 0.5, 1024}
		var edges []stream.Edge[float64]
		n := len(data) / 3
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			b := data[i*3 : i*3+3]
			edges = append(edges, stream.Weighted(
				fmt.Sprintf("e%03d", i),
				fmt.Sprintf("v%d", int(b[0])%8),
				fmt.Sprintf("v%d", int(b[1])%8),
				weights[int(b[2])%len(weights)],
				weights[int(b[2]/4)%len(weights)],
			))
		}
		plain := stream.NewView(ops, stream.Options{})
		guarded := stream.NewView(ops, stream.Options{CheckAssociative: true})
		pointed := stream.NewView(ops, stream.Options{})
		k := 1 + int(batchSize)%5
		for lo, step := 0, 0; lo < len(edges); lo, step = lo+k, step+1 {
			hi := lo + k
			if hi > len(edges) {
				hi = len(edges)
			}
			if err := plain.Append(edges[lo:hi]); err != nil {
				t.Fatalf("append [%d,%d): %v", lo, hi, err)
			}
			if err := guarded.Append(edges[lo:hi]); err != nil {
				t.Fatalf("guard false positive on exact dyadic +: %v", err)
			}
			if err := pointed.Append(edges[lo:hi]); err != nil {
				t.Fatalf("append [%d,%d): %v", lo, hi, err)
			}
			switch {
			case opsMask>>(step%8)&1 == 1:
				if err := plain.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
				if _, err := pointed.Snapshot(); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
			case step%2 == 1:
				if _, err := plain.Snapshot(); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
			}
			// A point read of the cell just written: a pin between batches.
			if pt, err := pointed.Point(); err != nil {
				t.Fatalf("point pin: %v", err)
			} else if _, ok := pt.At(edges[lo].Src, edges[lo].Dst); !ok {
				t.Fatalf("step %d: (%s,%s) was appended and does not read as stored", step, edges[lo].Src, edges[lo].Dst)
			}
		}
		// One-shot oracle over the same edges.
		outT := make([]assoc.Triple[float64], len(edges))
		inT := make([]assoc.Triple[float64], len(edges))
		for i, e := range edges {
			outT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out}
			inT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In}
		}
		want, err := assoc.Correlate(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops, assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := pointed.Point()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			src := fmt.Sprintf("v%d", i)
			row := map[string]float64{}
			pt.Row(src, func(dst string, v float64) { row[dst] = v })
			for j := 0; j < 8; j++ {
				dst := fmt.Sprintf("v%d", j)
				got, ok := pt.At(src, dst)
				fromRow, inRow := row[dst]
				if wv, wok := want.At(src, dst); ok != wok || got != wv || inRow != wok || fromRow != wv {
					t.Fatalf("point read (%s,%s) over %d unfolded edges = %v,%v (in its row: %v,%v); batch construction holds %v,%v",
						src, dst, pt.Suffix(), got, ok, fromRow, inRow, wv, wok)
				}
			}
		}
		for name, v := range map[string]*stream.View[float64]{"plain": plain, "guarded": guarded} {
			snap, err := v.Snapshot()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if snap.Edges != len(edges) {
				t.Fatalf("%s: %d edges ingested, want %d", name, snap.Edges, len(edges))
			}
			if diff := assoc.Diff(want, snap.Adjacency, ops.Equal, value.FormatFloat); diff != "" {
				t.Fatalf("%s view diverged from batch: %s", name, diff)
			}
		}
	})
}

// FuzzExplodeImplode checks the Figure 1 table round trip: exploding a
// dense table, imploding it back, and exploding again must be a
// fixpoint — Explode ∘ Implode is the identity on exploded arrays.
func FuzzExplodeImplode(f *testing.F) {
	f.Add([]byte{}, byte(1), byte(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6}, byte(2), byte(2))
	f.Add([]byte{0, 0, 0, 7, 7, 7, 3, 1, 4}, byte(3), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, nr, nf byte) {
		values := []string{"", "a", "b", "ab", "é", "😀", "x0", "Ω", "a;b", "b;a;b"}
		rows := 1 + int(nr)%5
		fields := 1 + int(nf)%4
		tab := assoc.Table{
			Rows:   make([]string, rows),
			Fields: make([]string, fields),
			Cells:  make([][]string, rows),
		}
		for i := range tab.Rows {
			tab.Rows[i] = fmt.Sprintf("r%02d", i)
			tab.Cells[i] = make([]string, fields)
			for j := range tab.Cells[i] {
				if idx := i*fields + j; idx < len(data) {
					tab.Cells[i][j] = values[int(data[idx])%len(values)]
				}
			}
		}
		for j := range tab.Fields {
			tab.Fields[j] = fmt.Sprintf("F%d", j)
		}
		e1, err := assoc.Explode(tab, assoc.ExplodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		imploded, err := assoc.Implode(e1, "|", ";")
		if err != nil {
			t.Fatalf("implode: %v\n%v", err, tab)
		}
		e2, err := assoc.Explode(imploded, assoc.ExplodeOptions{})
		if err != nil {
			t.Fatalf("re-explode: %v\n%v", err, imploded)
		}
		if diff := assoc.Diff(e1, e2, func(a, b float64) bool { return a == b }, value.FormatFloat); diff != "" {
			t.Fatalf("explode/implode not a fixpoint: %s", diff)
		}
	})
}
