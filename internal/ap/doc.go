// Package ap implements the associative processor: the LUT-driven
// bulk-bitwise execution model of §II-B/III of the paper. Every arithmetic
// operation is decomposed into ordered (masked search, tagged write) pass
// pairs per bit position; Table I of the paper lists the pass tables for
// 1-bit in-place and out-of-place addition and subtraction.
//
// Rather than hard-coding the tables, this package *generates* them from
// boolean functions (the paper's §IV-C "LUT generation" step): given a
// truth table and a declaration of which output roles persist in searched
// columns, Generate derives the needed passes (rows whose outputs differ
// from the pre-state) and orders them so that no tagged-and-written row can
// be re-matched by a later pass. The generated tables reproduce Table I,
// including its run order, for the in-place adder and both subtractors;
// for the out-of-place adder the paper's printed table has two rows'
// comments swapped (011/110 — see TestPaperTableIAdderErratum).
//
// Three executors interpret the same programs: Exec replays the exact
// bit-serial pass structure on the CAM array model, WordMachine is the
// word-level reference semantics, and ExecPlan/Machine is the
// production engine — programs lowered once, with a value-range
// analysis that removes provably-identity wraps and packs rows into
// 16-, 32- or 64-bit lanes, into one stream of 12-byte ops: a wrap-free
// add/sub is three column indices and a sign bit that Run executes
// with nothing to decode, anything else an escape to its full form. One
// word op advances several rows, replayed over reusable arenas; LoadRows
// (a Grid per call), CopyRows and AccumulateColumn move whole words. All
// three are proved bit-identical on randomized programs, and AuditPlan
// re-derives every claim of the lowering from the stream Run executes.
package ap
