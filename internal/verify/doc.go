// Package verify statically audits compiled execution plans.
//
// The ExecPlan engine elides almost all wrap masks and narrows its lanes
// on the strength of a compile-time value-range analysis, and skips
// Reset work via a zero-set analysis; a bug in either corrupts inference
// results silently. This
// package re-checks every retained tile program with an independent
// abstract interpreter (ap.AuditPlan) and reports structured, fully
// located diagnostics — model, layer, strip, tile, op index, violated
// invariant — so a bad plan is rejected at admit time instead of
// serving wrong bits.
//
// The package sits below internal/core: core.VerifyCompiled sweeps a
// compiled artifact through CheckTileProgram. core.Compile never runs
// it; its callers do: dataflow.VerifyOrCertify, the admission proof that
// serve runs at model admit (failures become HTTP 400s) and `rtmap-vet
// -plans` runs over the model zoo in CI, and the benchmark's ap.audit
// step.
package verify
