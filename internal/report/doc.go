// Package report renders the evaluation artifacts: Table II (accuracy,
// energy, latency, array and operation counts across systems) and the two
// panels of Fig. 4 (layer-by-layer energy breakdown and latency for
// ResNet-18 under NeuroSim, unroll, and unroll+CSE), as aligned text and
// as TSV for plotting, and the reproduction ledger (every paper number
// beside its reproduction) as a markdown table.
package report
