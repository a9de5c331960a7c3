package conformance

import (
	"flag"
	"os"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
)

// -quick scales the random search: instances per registry pair fed
// through the differential executor. CI's tier-1 run uses the default;
// the nightly arm passes -quick=2000 or more.
var quickN = flag.Int("quick", 60, "random instances per registry operator pair")

// The headline property: every construction path agrees with the serial
// two-phase reference on every adversarial instance for every registry
// pair, and with the dense Definition I.3 oracle whenever the pair's
// Theorem II.1 conditions license it.
func TestDifferentialAllPathsAllPairs(t *testing.T) {
	divs := Run(Config{Seed: 1, Instances: *quickN, KeepGoing: true})
	for _, d := range divs {
		t.Errorf("%s\n%s", d.Error(), d.Instance.Encode())
	}
}

// A second seed with the paths listed explicitly, guarding against the
// registry accidentally losing a shipped path.
func TestBuiltinPathRoster(t *testing.T) {
	want := map[string]bool{
		"reference-merge": false, "parallel": false,
		"fold": false, "fold-parallel": false,
		"stream": false, "stream-point-read": false,
	}
	for _, name := range PathNames() {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("built-in path %q missing from the registry", name)
		}
	}
}

// The fold paths compare the fold only if Correlate dispatches to it:
// every generated instance must reach it with unit-row operands over one
// edge key set.
func TestInstancesReachTheFold(t *testing.T) {
	gen := NewGenerator(3)
	for i := 0; i < 50; i++ {
		for _, entry := range semiring.Registry() {
			inst := gen.Instance(entry)
			eout, ein := inst.Incidence()
			if !eout.Matrix().UnitRows() || !ein.Matrix().UnitRows() || !eout.RowKeys().Equal(ein.RowKeys()) {
				t.Fatalf("instance %q (%d edges) would take the general engine on the fold paths", inst.Name, len(inst.Edges))
			}
		}
	}
}

// mutantPath is a deliberately broken kernel: it keeps only the FIRST
// contribution to each adjacency cell, silently dropping ⊕ aggregation
// of parallel edges — the classic duplicate-handling bug.
func mutantPath() Path {
	return Path{
		Name: "mutant-first-wins",
		Build: func(eout, ein *assoc.Array[float64], ops semiring.Ops[float64], inst Instance) (*assoc.Array[float64], error) {
			ts := make([]assoc.Triple[float64], len(inst.Edges))
			for i, e := range inst.Edges {
				ts[i] = assoc.Triple[float64]{Row: e.Src, Col: e.Dst, Val: ops.Mul(e.Out, e.In)}
			}
			first := func(a, b float64) float64 { return a }
			return assoc.FromTriples(ts, first).Prune(ops.IsZero), nil
		},
	}
}

// Acceptance property: a seeded divergence — a mutated kernel injected
// into the path registry — is caught by the executor and shrunk to a
// counterexample of at most 4 incidence triples (two parallel edges).
func TestSeededDivergenceCaughtAndShrunk(t *testing.T) {
	entry, ok := semiring.Lookup("+.*")
	if !ok {
		t.Fatal("+.* not registered")
	}
	paths := append(Paths(), mutantPath())
	gen := NewGenerator(7)
	var caught *Divergence
	for i := 0; i < 400 && caught == nil; i++ {
		caught = Compare(gen.Instance(entry), entry, paths)
	}
	if caught == nil {
		t.Fatal("mutated kernel survived 400 instances undetected")
	}
	if caught.Path != "mutant-first-wins" {
		t.Fatalf("a healthy path diverged before the mutant: %s", caught.Error())
	}
	shrunk := Shrink(caught.Instance, func(in Instance) bool {
		d := Compare(in, entry, paths)
		return d != nil && d.Path == "mutant-first-wins"
	})
	if got := shrunk.NumTriples(); got > 4 {
		t.Errorf("shrunk counterexample has %d triples, want <= 4:\n%s", got, shrunk.Encode())
	}
	if d := Compare(shrunk, entry, paths); d == nil || d.Path != "mutant-first-wins" {
		t.Errorf("shrunk instance no longer reproduces the divergence")
	}
}

// Run wires catching, shrinking, and artifact persistence together: a
// registered mutant produces a divergence whose artifact file decodes
// back into a still-failing instance.
func TestRunShrinksAndWritesArtifact(t *testing.T) {
	entry, _ := semiring.Lookup("+.*")
	dir := t.TempDir()
	divs := Run(Config{
		Seed:        7,
		Instances:   200,
		Entries:     []semiring.Entry{entry},
		Paths:       append(Paths(), mutantPath()),
		ArtifactDir: dir,
	})
	if len(divs) == 0 {
		t.Fatal("Run missed the mutated kernel")
	}
	d := divs[0]
	if d.Path != "mutant-first-wins" {
		t.Fatalf("unexpected diverging path: %s", d.Error())
	}
	if got := d.Instance.NumTriples(); got > 4 {
		t.Errorf("Run reported a %d-triple counterexample, want shrunk <= 4", got)
	}
	if d.Artifact == "" {
		t.Fatal("no artifact written")
	}
	data, err := os.ReadFile(d.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	// The artifact replays as-is: its leading '#' report line is a
	// comment to the decoder.
	replay, err := DecodeInstance(data)
	if err != nil {
		t.Fatalf("artifact does not decode: %v\n%s", err, data)
	}
	if c := Compare(replay, entry, append(Paths(), mutantPath())); c == nil || c.Path != "mutant-first-wins" {
		t.Error("replayed artifact no longer reproduces the divergence")
	}
}

// Registering a correct additional backend extends coverage for free —
// and unregistering restores the roster.
func TestRegisterExtendsCoverage(t *testing.T) {
	alias := Path{
		Name:  "alias-merge-kernel",
		Build: buildReferenceMerge,
	}
	if err := Register(alias); err != nil {
		t.Fatal(err)
	}
	defer Unregister("alias-merge-kernel")
	if err := Register(alias); err == nil {
		t.Error("duplicate registration accepted")
	}
	found := false
	for _, n := range PathNames() {
		if n == "alias-merge-kernel" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered path missing from PathNames")
	}
	if divs := Run(Config{Seed: 11, Instances: 15}); len(divs) > 0 {
		t.Errorf("merge-kernel alias diverged: %s", divs[0].Error())
	}
}

// The artifact encoding round-trips, so CI-uploaded counterexamples can
// be replayed locally with DecodeInstance.
func TestInstanceEncodeDecodeRoundTrip(t *testing.T) {
	gen := NewGenerator(5)
	entry, _ := semiring.Lookup("min.+")
	for i := 0; i < 25; i++ {
		in := gen.Instance(entry)
		back, err := DecodeInstance(in.Encode())
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, in.Encode())
		}
		if back.Name != in.Name || len(back.Edges) != len(in.Edges) {
			t.Fatalf("round trip changed shape: %q %d vs %q %d", back.Name, len(back.Edges), in.Name, len(in.Edges))
		}
		for j := range in.Edges {
			a, b := in.Edges[j], back.Edges[j]
			if a.Key != b.Key || a.Src != b.Src || a.Dst != b.Dst ||
				!entry.Ops.Equal(a.Out, b.Out) || !entry.Ops.Equal(a.In, b.In) {
				t.Fatalf("edge %d round trip: %+v vs %+v", j, a, b)
			}
		}
		if len(back.Splits) != len(in.Splits) {
			t.Fatalf("splits round trip: %v vs %v", back.Splits, in.Splits)
		}
	}
}

// Shrinking remaps split points consistently when edges are removed.
func TestShrinkRemapsSplits(t *testing.T) {
	inst := Instance{Name: "t", Edges: []Edge{
		{Key: "e0", Src: "a", Dst: "a", Out: 1, In: 1},
		{Key: "e1", Src: "a", Dst: "a", Out: 1, In: 1},
		{Key: "e2", Src: "b", Dst: "b", Out: 1, In: 1},
		{Key: "e3", Src: "a", Dst: "a", Out: 1, In: 1},
	}, Splits: []int{2, 3}}
	// Fails whenever at least two a→a edges survive.
	fails := func(in Instance) bool {
		n := 0
		for _, e := range in.Edges {
			if e.Src == "a" {
				n++
			}
		}
		return n >= 2
	}
	got := Shrink(inst, fails)
	if len(got.Edges) != 2 {
		t.Fatalf("shrunk to %d edges, want 2: %s", len(got.Edges), got.Encode())
	}
	if !fails(got) {
		t.Fatal("shrunk instance no longer fails")
	}
	for _, s := range got.Splits {
		if s <= 0 || s >= len(got.Edges) {
			t.Fatalf("split %d out of range after shrink: %s", s, got.Encode())
		}
	}
}
