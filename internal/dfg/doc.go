// Package dfg implements the data-flow-graph level of the compilation flow
// (Fig. 3 of the paper): ternary weight slices are unrolled and
// constant-folded into add/subtract expression DAGs, redundant additions
// are removed by common-subexpression elimination over signed input pairs
// (reproducing the paper's Equation (1): 19 accumulate operations reduced
// to 7 adds/subs), and every node is annotated with the minimum integer
// bitwidth that provably avoids overflow ("custom integer types").
//
// The CSE is greedy: each merge defines the signed pair held by the most
// rows, ties going to the smallest (v1, v2) and then to v1 + v2 before
// v1 − v2. Its state (extractPairs' pairs) is a table of pair counts
// indexed by variable pair, each pair's list of the rows that hold it,
// and a queue of pairs by count (a bucket per count, each a min-heap in
// tie-break order). A merge rewrites only the rows on its pair's list and
// moves the counts of the pairs those rows break and make, so its cost
// is the terms of those rows, not a rescan of every pair or row. The
// tables are recycled between slices. A slice of one input (every fc
// layer) has no pairs and takes none of this. Two things pin the merge
// order: the original full-recount extraction, kept in the tests as
// referenceExtractPairs, which the extraction must match on every slice
// shape of the zoo, and cmd/rtmap-compile's golden outputs.
package dfg
