package ap

// ArtifactTables holds a value of each element type of the tables a
// compiled tile keeps live — the program's and the plan's — for the
// pointer-free guard in package ap_test.
var ArtifactTables = []any{Instr{}, Col{}, Span{}, planOp{}, escOp{}, copyDst{}, Slot{}, Grid{}}
