//go:build amd64

package ap

func init() {
	if hasAVX2() {
		fastKernels = append(fastKernels, namedKernel{"avx2", runFastAVX2})
		runFast = runFastAVX2
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
