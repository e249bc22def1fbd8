// Package verify statically audits compiled execution plans.
//
// The ExecPlan engine elides almost all wrap masks and narrows its lanes
// on the strength of a compile-time value-range analysis, and skips
// Reset work via a zero-set analysis; a bug in either corrupts inference
// results silently. This
// package re-checks every retained tile program with an independent
// abstract interpreter (ap.AuditPlan) and reports structured, fully
// located diagnostics — model, layer, strip, tile, op index, violated
// invariant — so a bad plan is rejected at compile or admit time instead
// of serving wrong bits.
//
// The package sits below internal/core: core.VerifyCompiled sweeps a
// compiled artifact through CheckTileProgram, serve runs the same sweep
// at model admit (failures become HTTP 400s), and `rtmap-vet -plans`
// runs it over the builtin model zoo in CI.
package verify
