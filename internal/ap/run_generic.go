package ap

import "math"

// kernelSet is one implementation of the engine's inner loops over
// packed words: the fast-op stream and the three movers around it. The
// set is chosen whole, once, at start-up: the portable Go loops
// everywhere, and where CPUID reports AVX2 the assembly kernels of
// run_amd64.s, which run whole vector blocks at 16-bit lanes and leave
// every tail to the Go twin. Each kernel of a set computes exactly what
// its twin computes.
type kernelSet struct {
	name string
	// run runs the leading fast ops of ops over the arena flat — w words
	// per slot, bias one in every lane — and returns how many it ran: the
	// index of the first escape, or len(ops). slots is len(flat)/w, the
	// bound every slot index an assembly kernel reads is checked against;
	// a kernel may also stop early at a fast op that names a slot outside
	// it, which Run then hands to runFastGeneric to fail as Go fails.
	run func(flat []uint64, ops []planOp, w int, bias uint64, slots int) int
	// pack stores src[4k:4k+4] into word k of dst as four 16-bit lanes,
	// wrapped to a column's stored format by whole-word masks (see
	// LoadRows), for the min(len(dst), len(src)/4) words both cover.
	pack func(dst []uint64, src []int32, fmask, fsign, bias uint64)
	// accumulate adds the four 16-bit lanes of word k of src, each less
	// the lane offset one, into dst[4k:4k+4], for the min(len(src),
	// len(dst)/4) words both cover.
	accumulate func(dst []int32, src []uint64, one int32)
	// requantize stores clamp(RoundToEven(src[k]·scale), lo, hi) into
	// dst[k] for the min(len(dst), len(src)) elements both cover.
	requantize func(dst, src []int32, scale float64, lo, hi int32)
}

// kernelSets are the sets this CPU can run, by name, portable first:
// the Go loops everywhere, and the AVX2 kernels where CPUID reports
// them (run_amd64.go).
var kernelSets = []kernelSet{{"go", runFastGeneric, packGeneric, accumulateGeneric, requantizeGeneric}}

// kern is the set the engine uses: the last of kernelSets, chosen once
// at start-up. Tests swap it to hold every set to the same results.
var kern = kernelSets[0]

// runFastGeneric is the portable run kernel. A fast op is carry-isolated
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

// packGeneric is the portable pack kernel: one window of four source
// elements a word, each cut to its low 16 bits, then the format wrap on
// all four lanes at once.
//
//rtmap:noalloc
func packGeneric(dst []uint64, src []int32, fmask, fsign, bias uint64) {
	for k := range min(len(dst), len(src)/4) {
		s := src[4*k : 4*k+4 : 4*k+4]
		raw := uint64(uint16(s[0])) | uint64(uint16(s[1]))<<16 | uint64(uint16(s[2]))<<32 | uint64(uint16(s[3]))<<48
		dst[k] = raw&fmask + bias - (raw&fsign)<<1
	}
}

// accumulateGeneric is the portable accumulate kernel: one word read
// once for its four lanes.
//
//rtmap:noalloc
func accumulateGeneric(dst []int32, src []uint64, one int32) {
	for k, x := range src[:min(len(src), len(dst)/4)] {
		d4 := dst[4*k : 4*k+4 : 4*k+4]
		d4[0] += int32(uint16(x)) - one
		d4[1] += int32(uint16(x>>16)) - one
		d4[2] += int32(uint16(x>>32)) - one
		d4[3] += int32(x>>48) - one
	}
}

// requantizeGeneric is the portable requantize kernel. A product outside
// int32's range converts as the architecture converts it — to MinInt32
// on amd64, saturated on arm64 — and clamps from there, as the scalar
// reference (model.RequantCode) does on the same CPU.
//
//rtmap:noalloc
func requantizeGeneric(dst, src []int32, scale float64, lo, hi int32) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for k, c := range src {
		dst[k] = min(max(int32(math.RoundToEven(float64(c)*scale)), lo), hi)
	}
}
