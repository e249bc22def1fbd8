#include "textflag.h"

// func runFastAVX2(flat []uint64, ops []planOp, w int, bias uint64, slots int) int
//
// Registers: SI flat, DI the current op, CX the ops left, R8 w, R9
// ^bias, R10 slots; per op DX, R11 and R12 address d, a and b, R13 holds
// neg and R14 c (Y0 and Y1 broadcast), BX indexes words up from −w to 0.
// Only VEX encodings touch the vector registers: a legacy-SSE instruction
// after a dirty upper YMM stalls every later one.
TEXT ·runFastAVX2(SB), NOSPLIT, $0-80
	MOVQ flat_base+0(FP), SI
	MOVQ ops_base+24(FP), DI
	MOVQ ops_len+32(FP), CX
	MOVQ w+48(FP), R8
	MOVQ bias+56(FP), R9
	NOTQ R9
	MOVQ slots+64(FP), R10
	CMPQ R8, $1
	JEQ  one
	JLT  done

op:
	TESTQ CX, CX
	JEQ   done
	MOVL  0(DI), DX
	TESTL DX, DX
	JMI   done             // an escape: opEsc is dst's bit 31
	MOVL  4(DI), R11
	MOVL  8(DI), R12
	CMPQ  DX, R10
	JCC   done             // a slot outside the arena: Go runs this op
	MOVL  R11, R13
	SHRL  $31, R13
	NEGQ  R13              // neg: all ones for a sub (opSub is a's bit 31)
	ANDL  $0x7fffffff, R11
	CMPQ  R11, R10
	JCC   done
	CMPQ  R12, R10
	JCC   done
	MOVQ  R9, R14
	XORQ  R13, R14
	INCQ  R14              // c = (bias ^ ^neg) + 1
	IMULQ R8, DX
	IMULQ R8, R11
	IMULQ R8, R12
	// Point DX, R11 and R12 past their slots' ends and count BX up to 0.
	LEAQ  (DX)(R8*1), DX
	LEAQ  (R11)(R8*1), R11
	LEAQ  (R12)(R8*1), R12
	LEAQ  (SI)(DX*8), DX
	LEAQ  (SI)(R11*8), R11
	LEAQ  (SI)(R12*8), R12
	MOVQ  R8, BX
	NEGQ  BX
	CMPQ  R8, $8
	JLT   tail
	VMOVQ        R13, X0
	VPBROADCASTQ X0, Y0
	VMOVQ        R14, X1
	VPBROADCASTQ X1, Y1

vec:
	VMOVDQU (R11)(BX*8), Y2
	VMOVDQU 32(R11)(BX*8), Y3
	VPXOR   Y0, Y2, Y2
	VPXOR   Y0, Y3, Y3
	VPADDQ  Y1, Y2, Y2
	VPADDQ  Y1, Y3, Y3
	VPADDQ  (R12)(BX*8), Y2, Y2
	VPADDQ  32(R12)(BX*8), Y3, Y3
	VMOVDQU Y2, (DX)(BX*8)
	VMOVDQU Y3, 32(DX)(BX*8)
	ADDQ    $8, BX
	CMPQ    BX, $-8
	JLE     vec
	TESTQ   BX, BX
	JEQ     next

tail:
	MOVQ (R11)(BX*8), AX
	XORQ R13, AX
	ADDQ R14, AX
	ADDQ (R12)(BX*8), AX
	MOVQ AX, (DX)(BX*8)
	INCQ BX
	JNE  tail

next:
	ADDQ $12, DI
	DECQ CX
	JMP  op

	// The one-word form: d = b + (a ^ neg) + c, slots indexing flat
	// directly, no vector registers.
one:
	TESTQ CX, CX
	JEQ   done
	MOVL  0(DI), DX
	TESTL DX, DX
	JMI   done
	MOVL  4(DI), R11
	MOVL  8(DI), R12
	CMPQ  DX, R10
	JCC   done
	MOVL  R11, R13
	SHRL  $31, R13
	NEGQ  R13
	ANDL  $0x7fffffff, R11
	CMPQ  R11, R10
	JCC   done
	CMPQ  R12, R10
	JCC   done
	MOVQ  (SI)(R11*8), AX
	XORQ  R13, AX
	XORQ  R9, R13
	LEAQ  1(AX)(R13*1), AX
	ADDQ  (SI)(R12*8), AX
	MOVQ  AX, (SI)(DX*8)
	ADDQ  $12, DI
	DECQ  CX
	JMP   one

done:
	VZEROUPPER
	MOVQ ops_len+32(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+72(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
