package ap

// fastKernel runs the leading fast ops of ops over the arena flat — w
// words per slot, bias one in every lane — and returns how many it ran:
// the index of the first escape, or len(ops). slots is len(flat)/w, the
// bound every slot index an assembly kernel reads is checked against; a
// kernel may also stop early at a fast op that names a slot outside it,
// which Run then hands to runFastGeneric to fail as Go fails.
type fastKernel func(flat []uint64, ops []planOp, w int, bias uint64, slots int) int

type namedKernel struct {
	name string
	run  fastKernel
}

// fastKernels are the kernels this CPU can run, by name, portable first:
// runFastGeneric everywhere, and the AVX2 kernel where CPUID reports it
// (run_amd64.go).
var fastKernels = []namedKernel{{"go", runFastGeneric}}

// runFast is the kernel Run uses: the last of fastKernels, chosen once
// at start-up. Tests swap it to hold every kernel to the same results.
var runFast fastKernel = runFastGeneric

// runFastGeneric is the portable kernel. A fast op is carry-isolated
// word arithmetic over whole slots, executed straight from its three
// indices; a slot index past the arena panics like any slice index.
//
//rtmap:noalloc
func runFastGeneric(flat []uint64, ops []planOp, w int, bias uint64, _ int) int {
	// A slice expression checks against capacity: cap flat at its length,
	// or a slot just past the arena would reach into a reused backing
	// array's spare words.
	flat = flat[:len(flat):len(flat)]
	for i, op := range ops {
		if op.dst&opEsc != 0 {
			return i
		}
		// One expression for both, so the add/sub mix of a program costs
		// no branch: b − a is b + ^a + 1 word-wide, whatever the lanes.
		// add: b + a − bias; sub: b + ^a + (bias + 1).
		neg := -uint64(op.a >> 31)
		c := (bias ^ ^neg) + 1
		od, oa, ob := int(op.dst)*w, int(op.a&^opSub)*w, int(op.b)*w
		if w == 1 {
			flat[od] = flat[ob] + (flat[oa] ^ neg) + c
			continue
		}
		d := flat[od : od+w]
		a, b := flat[oa : oa+w][:len(d)], flat[ob : ob+w][:len(d)]
		k := 0
		for ; k+4 <= len(d); k += 4 {
			d4, a4, b4 := d[k:k+4:k+4], a[k:k+4:k+4], b[k:k+4:k+4]
			d4[0] = b4[0] + (a4[0] ^ neg) + c
			d4[1] = b4[1] + (a4[1] ^ neg) + c
			d4[2] = b4[2] + (a4[2] ^ neg) + c
			d4[3] = b4[3] + (a4[3] ^ neg) + c
		}
		for ; k < len(d); k++ {
			d[k] = b[k] + (a[k] ^ neg) + c
		}
	}
	return len(ops)
}
