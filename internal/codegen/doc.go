// Package codegen lowers annotated slice DFGs onto the AP ISA: it lays
// out input planes, accumulators, carry and temporaries over the 256 CAM
// columns, selects in-place vs out-of-place operation forms (§IV-C —
// chains of temporaries run in place at a shared chain width, which keeps
// stored values sign-extended and every LUT step sound), fuses negated
// outputs into accumulate-with-subtract, and emits one straight-line AP
// program per (output tile × resident channel set). Temporaries come
// from a column pool and return to it at their value's last use
// (liveness over the slice DFG): the operational form of the paper's
// §IV-B column allocation. Their virtual columns are marked ap.Col.Temp,
// so the engine recycles their storage the same way.
package codegen
