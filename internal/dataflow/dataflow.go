package dataflow

import (
	"rtmap/internal/core"
	"rtmap/internal/verify"
)

// Invariant names of the dataflow verifier, in the same style as the
// ap.AuditPlan invariants. Every diagnostic the package emits carries
// one of these.
const (
	// InvStructure: the compiled artifact's cross-program structure is
	// inconsistent (strip/tile counts, tile sizes, missing programs).
	InvStructure = "dataflow-structure"
	// InvProducer: a consumed activation column has zero or multiple
	// producers, or a producer resident in the wrong strip or slot.
	InvProducer = "dataflow-producer"
	// InvLiveness: a tile program's consumed input set disagrees with
	// the live set re-derived from the layer's ternary weights.
	InvLiveness = "dataflow-liveness"
	// InvFormat: a column's storage format (width, signedness, domain
	// base) disagrees with the independently derived activation band.
	InvFormat = "dataflow-format"
	// InvTemp: a column's Temp flag disagrees with its role — the carry,
	// an accumulator or an input (storage the engine must not recycle) is
	// marked temp, or a temp's physical column lies outside the layout's
	// temp pool.
	InvTemp = "dataflow-temp"
	// InvOverflow: a propagated value interval does not fit the
	// accumulator width the plan allocated.
	InvOverflow = "dataflow-overflow"
	// InvShard: a shard plan's stages are not disjoint and exhaustive,
	// or a boundary transfer set disagrees with the static live set.
	InvShard = "dataflow-shard"
	// InvCertificate: a stored plan certificate disagrees with the
	// artifact it claims to certify.
	InvCertificate = "dataflow-certificate"
)

// Check runs the whole-artifact dataflow verification over a compiled
// model: the cross-layer interval propagation (with accumulator
// overflow proofs) and, for artifacts compiled with KeepPrograms, the
// per-column liveness and producer/consumer audit across every
// (strip, tile) program boundary. A clean artifact yields the facts of
// its PlanCertificate; a dirty one yields a *verify.Error whose located
// diagnostics are in canonical order. Check is the seam pass of the
// admission proof only: it does not audit the plans, so a certificate
// is stored (VerifyOrCertify) or written (rtmap-vet) only after
// core.VerifyCompiled is clean too.
func Check(comp *core.Compiled) (*Certificate, error) {
	bands, diags := deriveRanges(comp)
	diags = append(diags, auditLiveness(comp)...)
	if len(diags) > 0 {
		e := &verify.Error{Diags: diags}
		e.Sort()
		return nil, e
	}
	return newCertificate(comp, bands), nil
}

// modelName returns the diagnostic model label of an artifact.
func modelName(comp *core.Compiled) string {
	if comp.Net != nil {
		return comp.Net.Name
	}
	return ""
}
