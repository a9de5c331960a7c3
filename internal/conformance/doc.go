// Package conformance is the cross-backend verification subsystem: a
// reusable harness that checks every adjacency-construction path in the
// repository against the dense Definition I.3 oracle and against each
// other, on adversarial random instances, with automatic counterexample
// shrinking.
//
// The library has several independently-written ways to compute
// A = Eoutᵀ ⊕.⊗ Ein — the two-phase symbolic/numeric engine sparse.Mxm
// serial and across spans, the unit-row fold construction actually runs
// (sparse.FoldUnitRows, serial and across spans), the expand-and-merge
// reference, and the incremental stream.Store — and the paper's
// correctness claim (Theorem II.1 of the companion "Algebraic
// Conditions" work) is about the MATHEMATICAL product, not any one
// kernel. The harness separates those concerns into tiers:
//
//   - Bit-identity tier: every sparse path must produce an array Equal
//     to the serial engine's Mul(Eoutᵀ, Ein) on every instance, for every
//     registry operator pair — kernels fold contributions in ascending
//     edge-key order by contract, so even non-associative,
//     non-commutative ⊕ must agree bit-for-bit. Paths that fold an
//     instance in parts (the stream paths) continue each cell from what
//     the earlier parts stored, so they agree too, wherever Zero is a
//     ⊕-identity on the instance's products — the one precondition (a
//     cell folded to exactly Zero is not stored).
//
//   - Oracle tier: when the operator pair satisfies the Theorem II.1
//     conditions (checked on the pair's canonical sample extended with
//     the instance's values), the sparse result must equal the dense
//     oracle that folds over every shared key including structural
//     zeros. Instances carrying NaN, off-domain, or
//     annihilator-breaking values automatically downgrade to the
//     bit-identity tier — exactly the dichotomy the paper proves.
//
//   - Metamorphic tier (laws_test.go): transpose duality
//     A(Eout,Ein)ᵀ = A(Ein,Eout) for commutative ⊗, degree-sum
//     invariants under unit-weight +.*, sub-array selection commuting
//     with construction, and batch == incremental under arbitrary batch
//     splits.
//
// Instances come from adversarial generators (generate.go): duplicate
// parallel edges, single-vertex universes, unicode and prefix-colliding
// keys, RMAT-style skew, NaN/±Inf and off-domain values, and empty
// instances. A failing instance is minimized by ddmin-style shrinking
// (shrink.go) before being reported, and optionally written to
// CONFORMANCE_ARTIFACT_DIR for CI artifact upload.
//
// A new backend gets all of this from one entry in builtinPaths
// (paths.go); `go test ./internal/conformance -quick=N` scales the random
// search, and the package's native fuzz targets (FuzzCorrelate,
// FuzzStreamAppend, FuzzExplodeImplode) drive the same executor from
// coverage-guided inputs.
package conformance
