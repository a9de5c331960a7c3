package conformance

import (
	"fmt"
	"os"
	"path/filepath"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// Divergence is one disagreement between a construction path and the
// reference (or between the reference and the dense oracle), pinned to
// the instance that produced it.
type Divergence struct {
	// Pair is the operator pair's registry name.
	Pair string
	// Path names the disagreeing construction path, "dense-oracle" for
	// an oracle-tier failure, or "reference" when the serial two-phase
	// reference itself errored.
	Path string
	// Detail is the first difference (assoc.Diff) or the error message.
	Detail string
	// Instance reproduces the failure (shrunk when found via Run).
	Instance Instance
	// Artifact is the file the instance was written to, when an
	// artifact directory was configured.
	Artifact string
}

// Error renders the divergence as a one-line report.
func (d *Divergence) Error() string {
	s := fmt.Sprintf("conformance: pair %s path %s on %q (%d edges): %s",
		d.Pair, d.Path, d.Instance.Name, len(d.Instance.Edges), d.Detail)
	if d.Artifact != "" {
		s += " [artifact: " + d.Artifact + "]"
	}
	return s
}

// Compare runs one instance through every path and reports the first
// divergence, or nil when all agree. The serial general engine —
// transpose, then sparse.Mxm, spelled out so that it stays the engine
// whatever assoc.Correlate dispatches to — is the reference; paths that
// fold in parts are skipped when Zero is not a ⊕-identity on the
// instance's products, and the dense oracle is consulted only when the
// pair passes the Theorem II.1 conditions (plus ⊕-identity) on its sample
// extended with the instance's values.
func Compare(inst Instance, entry semiring.Entry, paths []Path) *Divergence {
	ops := entry.Ops
	eout, ein := inst.Incidence()
	ref, err := assoc.Mul(eout.Transpose(), ein, ops, assoc.MulOptions{})
	if err != nil {
		return &Divergence{Pair: entry.Name, Path: "reference", Detail: err.Error(), Instance: inst}
	}
	if err := ref.Validate(); err != nil {
		return &Divergence{Pair: entry.Name, Path: "reference", Detail: err.Error(), Instance: inst}
	}

	resumable := zeroIsIdentityOn(ops, inst)
	for _, p := range paths {
		if p.Resumes && !resumable {
			continue
		}
		got, err := p.Build(eout, ein, ops, inst)
		if err != nil {
			return &Divergence{Pair: entry.Name, Path: p.Name, Detail: err.Error(), Instance: inst}
		}
		if err := got.Validate(); err != nil {
			return &Divergence{Pair: entry.Name, Path: p.Name, Detail: "invalid structure: " + err.Error(), Instance: inst}
		}
		if diff := assoc.Diff(ref, got, ops.Equal, value.FormatFloat); diff != "" {
			return &Divergence{Pair: entry.Name, Path: p.Name, Detail: diff, Instance: inst}
		}
	}

	if oracleEligible(entry, inst) {
		oracle, err := assoc.MulDense(eout.Transpose(), ein, ops)
		if err != nil {
			return &Divergence{Pair: entry.Name, Path: "dense-oracle", Detail: err.Error(), Instance: inst}
		}
		if diff := assoc.Diff(oracle, ref, ops.Equal, value.FormatFloat); diff != "" {
			return &Divergence{Pair: entry.Name, Path: "dense-oracle", Detail: diff, Instance: inst}
		}
	}
	return nil
}

// zeroIsIdentityOn reports whether Zero is a two-sided ⊕-identity on
// every ⊗-product of the instance — the one precondition under which a
// fold in parts (the stream paths) equals the one fold. A fold starts
// each cell from the value the earlier parts left, whatever ⊕ is, but a
// cell that folded to exactly Zero is not stored: the next part starts
// it from its first product p where the one fold computes 0 ⊕ p. (The
// harness caught this on max.+@0 over signed data: 2 ⊗ −2 = 0 is a
// zero-divisor product whose pruning loses max(0, −1) ≠ −1.)
func zeroIsIdentityOn(ops semiring.Ops[float64], inst Instance) bool {
	for _, e := range inst.Edges {
		p := ops.Mul(e.Out, e.In)
		if !ops.Equal(ops.Add(p, ops.Zero), p) || !ops.Equal(ops.Add(ops.Zero, p), p) {
			return false
		}
	}
	return true
}

// oracleEligible decides whether the dense Definition I.3 oracle is a
// valid reference for this (pair, instance): the Theorem II.1 conditions
// and the ⊕-identity law must hold on the pair's canonical sample
// extended with the instance's values. When they fail (NaN data breaking
// the annihilator, off-domain values breaking zero-sum-freeness), the
// sparse and dense products may legitimately differ — that is the
// paper's theorem — so the executor falls back to cross-kernel
// agreement only.
func oracleEligible(entry semiring.Entry, inst Instance) bool {
	sample := append([]float64{}, entry.Sample...)
	add := func(v float64) {
		for _, s := range sample {
			if value.Float64Equal(s, v) {
				return
			}
		}
		if len(sample) < 64 {
			sample = append(sample, v)
		}
	}
	for _, e := range inst.Edges {
		add(e.Out)
		add(e.In)
	}
	rep := semiring.Check(entry.Ops, sample, value.FormatFloat)
	return rep.TheoremII1() && rep.AddIdentity.Holds
}

// Config tunes a Run of the differential executor.
type Config struct {
	// Seed drives instance generation. Runs are reproducible from it.
	Seed int64
	// Instances is the number of random instances per operator pair
	// (default 100).
	Instances int
	// Entries are the operator pairs to cover (default: the full
	// registry, compliant pairs and non-examples alike).
	Entries []semiring.Entry
	// Paths are the construction paths (default: builtinPaths()).
	Paths []Path
	// ArtifactDir, when non-empty, receives one Encode()d file per
	// shrunk divergence. Default: $CONFORMANCE_ARTIFACT_DIR.
	ArtifactDir string
	// KeepGoing collects every divergence instead of stopping at the
	// first.
	KeepGoing bool
}

func (c *Config) defaults() {
	if c.Instances <= 0 {
		c.Instances = 100
	}
	if len(c.Entries) == 0 {
		c.Entries = semiring.Registry()
	}
	if len(c.Paths) == 0 {
		c.Paths = builtinPaths()
	}
	if c.ArtifactDir == "" {
		c.ArtifactDir = os.Getenv("CONFORMANCE_ARTIFACT_DIR")
	}
}

// Run draws Instances random instances per operator pair, feeds each
// through Compare, and shrinks every divergence before reporting it.
// Shrunk counterexamples are written to the artifact directory when one
// is configured.
func Run(cfg Config) []*Divergence {
	cfg.defaults()
	var divs []*Divergence
	gen := NewGenerator(cfg.Seed)
	for i := 0; i < cfg.Instances; i++ {
		for _, e := range cfg.Entries {
			inst := gen.Instance(e)
			d := Compare(inst, e, cfg.Paths)
			if d == nil {
				continue
			}
			d = shrinkDivergence(d, e, cfg.Paths)
			d.Artifact = writeArtifact(cfg.ArtifactDir, d)
			divs = append(divs, d)
			if !cfg.KeepGoing {
				return divs
			}
		}
	}
	return divs
}

// shrinkDivergence minimizes the divergence's instance while the SAME
// path keeps disagreeing, then re-runs Compare for an up-to-date detail.
func shrinkDivergence(d *Divergence, entry semiring.Entry, paths []Path) *Divergence {
	shrunk := Shrink(d.Instance, func(in Instance) bool {
		c := Compare(in, entry, paths)
		return c != nil && c.Path == d.Path
	})
	c := Compare(shrunk, entry, paths)
	if c == nil {
		return d // shrinking lost the failure (should not happen); keep the original
	}
	c.Instance = shrunk
	return c
}

// writeArtifact persists a shrunk counterexample; returns the path or
// "". Files are created with O_EXCL under a numbered suffix, so two
// divergences whose names sanitize identically (e.g. "+.*" and "∪.∩"
// both become "___") never overwrite each other and every reported
// Artifact path holds exactly the instance it claims to reproduce.
func writeArtifact(dir string, d *Divergence) string {
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	body := append([]byte(fmt.Sprintf("# %s\n", d.Error())), d.Instance.Encode()...)
	base := fmt.Sprintf("divergence-%s-%s", sanitize(d.Pair), sanitize(d.Path))
	for i := 0; i < 10000; i++ {
		name := base + ".txt"
		if i > 0 {
			name = fmt.Sprintf("%s-%d.txt", base, i)
		}
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return ""
		}
		_, werr := f.Write(body)
		if cerr := f.Close(); werr != nil || cerr != nil {
			return ""
		}
		return path
	}
	return ""
}

// sanitize maps registry names like "+.*" onto filesystem-safe tokens.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// SelfCheck is the embeddable entry point: it runs the differential
// executor over every registry pair and registered path and returns the
// first (shrunk) divergence as an error, or nil when all paths agree on
// every instance. The adjarray facade re-exports it so applications can
// verify a deployment's construction paths at startup or in their own
// test suites.
func SelfCheck(seed int64, instances int) error {
	if divs := Run(Config{Seed: seed, Instances: instances}); len(divs) > 0 {
		return divs[0]
	}
	return nil
}
