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
//
// A tile program is the accumulator clears and then one fragment per
// resident channel, in channel order (TileProgram.ChanAt): a fragment has
// its own temporaries, reads only its own channel's inputs and touches
// the accumulators only by acc = acc ± x. So the clears and any run of
// fragments compute exactly those channels' partial sums — what the
// paper's inter-strip adder tree reduces across strips — and
// TileProgram.Parts cuts a program there into runs balanced by op count,
// each a view of the one lowered plan, with no op run twice.
//
// A finished program's price (TileProgram.Stats) is read from its
// instructions, not tallied during emission: the cost model prices the
// program the engine runs and ap.AuditPlan proves.
package codegen
