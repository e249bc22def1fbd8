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
// Two executors interpret the same programs. Exec replays the exact
// bit-serial pass structure on a bit-plane model of the CAM array, one
// row bitset per column bit: the reference. ExecPlan/Machine is the
// production engine — programs lowered once, with a value-range
// analysis that removes provably-identity wraps and packs rows into
// 16-, 32- or 64-bit lanes, into one stream of 12-byte ops: a wrap-free
// add/sub is three arena slot indices and a sign bit that Run executes
// with nothing to decode, anything else an escape to its full form. One
// word op advances several rows, over reusable arenas. The inner loops
// form one kernel set, chosen once from CPUID: Run hands each stretch of
// fast ops to its run kernel; LoadRows (positions of a Grid) packs every
// whole word of a contiguous run at 16-bit lanes in its pack kernel,
// AccumulateColumn reads words back in its accumulate kernel, and
// Requantize — the engine's fused act step, clamp(RoundToEven(c·scale),
// lo, hi) — is its requantize kernel; SetRow stores one position and
// CopyRows copies whole words. On a CPU with AVX2 the set is assembly
// (16 rows per instruction; the run kernel checks every slot index
// against the arena, the movers stay inside the slices they are given,
// and every tail is left to the Go twin), elsewhere the portable Go
// loops. The two executors are proved bit-identical on randomized
// programs, each kernel is held to its Go twin, and AuditPlan re-derives
// every claim of the lowering from the stream Run executes.
//
// A column marked Col.Temp is the program's own scratch, as the
// compiler's column pool hands it out: nothing outside the program loads
// or reads it, and its value after the program's last reference to it is
// undefined. The lowering gives every other column — and a temp the
// program reads before writing — a slot of its own, and lets temps whose
// lives do not overlap share one, so a Machine's arena is as wide as the
// most values live at once (vgg9's conv3_1: 1 448 slots for 16 329
// columns), not as the columns a program names.
//
// A compiled artifact keeps its tables live for as long as it is served:
// each tile's Program beside its ExecPlan, for the audits and the part
// cuts — 399 433 instructions for vgg9, 1.8 million for resnet18. None
// of them holds a pointer. A column is known by its index (it has no
// name), and a copy's extra destinations are a span of the program's
// Dsts table, not a slice of their own; planOp, escOp, Slot and Grid are
// indices and counts. The runtime allocates such tables as no-scan
// memory, so the collector never walks them. One slice field in Instr
// and one string in Col would put every element back on its books —
// 31.9 MB of scan work a cycle for a live vgg9 — and the per-inference
// traces start a cycle every few dozen calls.
// TestArtifactTablesPointerFree pins the element types, and sim's
// TestCompiledArtifactNotScanned the runtime's own reading.
//
// ExecPlan.Part views a plan as its leading ops followed by one range of
// the rest — the same slots, lanes and side tables, the zero set cut to
// the slots the view names — without lowering again. AuditParts proves,
// in one linear pass over a program cut into a head and fragments, that
// every such view of a run of fragments computes exactly their partial
// sums under the whole plan's lanes and wrap-free flags, so the views
// need no audit each.
package ap
