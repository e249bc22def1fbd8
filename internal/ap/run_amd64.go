//go:build amd64

package ap

func init() {
	if hasAVX2() {
		kernelSets = append(kernelSets, kernelSet{"avx2", runFastAVX2, packAVX2, accumulateAVX2, requantizeAVX2})
		kern = kernelSets[len(kernelSets)-1]
	}
}

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 7 EBX bit 5, and leaf 1
// ECX bits 27 (OSXSAVE) and 28 (AVX) with XCR0's SSE and AVX state bits
// (XGETBV(0) & 6 == 6).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// runFastAVX2 is runFastGeneric in AVX2 (run_amd64.s): each fast op runs
// 8 words — 32 rows at 16-bit lanes — per loop iteration as two 256-bit
// xor/add pairs, then its tail a word at a time, and a one-word slot
// without vector registers. It returns before the first op that names a
// slot ≥ slots, so it never touches a word outside flat.
//
//go:noescape
func runFastAVX2(flat []uint64, ops []planOp, w int, bias uint64, slots int) int

// packAVX2 packs 4-word blocks — 16 source elements — per iteration in
// assembly and the 0–3 words left in Go.
//
//rtmap:noalloc
func packAVX2(dst []uint64, src []int32, fmask, fsign, bias uint64) {
	k := packBlocksAVX2(dst, src, fmask, fsign, bias)
	packGeneric(dst[k:], src[4*k:], fmask, fsign, bias)
}

// accumulateAVX2 adds 2-word blocks — 8 rows — per iteration in
// assembly and the word left, if any, in Go.
//
//rtmap:noalloc
func accumulateAVX2(dst []int32, src []uint64, one int32) {
	k := accumulateBlocksAVX2(dst, src, one)
	accumulateGeneric(dst[4*k:], src[k:], one)
}

// requantizeAVX2 requantizes 4-element blocks per iteration in assembly
// and the 0–3 elements left in Go.
//
//rtmap:noalloc
func requantizeAVX2(dst, src []int32, scale float64, lo, hi int32) {
	k := requantizeBlocksAVX2(dst, src, scale, lo, hi)
	requantizeGeneric(dst[k:], src[k:], scale, lo, hi)
}

// packBlocksAVX2 runs packGeneric over the whole 4-word blocks of the
// words dst and src both cover and returns how many words it stored:
// each block masks 16 elements to 16 bits, packs them to words
// (VPACKUSDW, VPERMQ to undo its per-half order) and wraps all four
// words at once.
//
//go:noescape
func packBlocksAVX2(dst []uint64, src []int32, fmask, fsign, bias uint64) int

// accumulateBlocksAVX2 runs accumulateGeneric over the whole 2-word
// blocks of the words src and dst both cover and returns how many words
// it read: each block widens 8 lanes to int32 (VPMOVZXWD), subtracts
// the offset and adds them into dst.
//
//go:noescape
func accumulateBlocksAVX2(dst []int32, src []uint64, one int32) int

// requantizeBlocksAVX2 runs requantizeGeneric over the whole 4-element
// blocks dst and src both cover and returns how many elements it stored:
// convert to float64, multiply, round to nearest even (VROUNDPD $0),
// truncate back to int32 — MinInt32 for anything out of range, as Go's
// conversion on amd64 — and clamp.
//
//go:noescape
func requantizeBlocksAVX2(dst, src []int32, scale float64, lo, hi int32) int
