// Package dataflow is the whole-artifact static verifier: an abstract
// interpreter over compiled models that proves the seams between tile
// programs, not just the programs themselves (ap.AuditPlan's job).
//
// Check re-derives, independently of the compiler's lowering code:
//
//   - per-column liveness and producer/consumer chains across every
//     (strip, tile) program boundary — every consumed activation column
//     has exactly one producer, resident in the strip the consuming
//     program runs on, with a storage format matching the producer's
//     band;
//   - value intervals composed across layer boundaries (through im2col
//     patch expansion, pooling, residual skip connections), proving
//     every conv accumulator width can never overflow;
//   - the consumed input set of every tile program against the layer's
//     ternary weights, so a rerouted, duplicated or dropped producer
//     column is caught before anything executes.
//
// VerifyOrCertify is the admission proof: the plan audit
// (core.VerifyCompiled) and Check, with one *verify.Error for both. An
// artifact both are clean on yields a PlanCertificate: a machine-readable
// JSON record of the strengthened cross-layer ranges, content-addressed
// by core.ArtifactHash through the artifact cache. Serve admission
// trusts a stored certificate instead of re-proving (certificate hit),
// and the planned bit-sliced/JIT interpreter can consume the certified
// ranges to justify branch-free lanes.
//
// AuditShard extends the same treatment to core.Partition shard plans:
// stage ranges must be disjoint and exhaustive, and every boundary
// transfer set must equal the statically computed live set (skip
// connections included) with exactly the declared payload bits.
//
// Its callers run it on compiled artifacts directly: serve admission
// and `rtmap-vet -plans` (VerifyOrCertify), and the benchmark's
// dataflow.check step (Check). core.Compile never runs it, and core
// never imports this package.
package dataflow
