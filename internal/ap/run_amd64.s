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

// func packBlocksAVX2(dst []uint64, src []int32, fmask, fsign, bias uint64) int
//
// DI dst, SI src, CX the words to store (a multiple of 4), BX the words
// stored; Y4 fmask, Y5 fsign, Y6 bias, Y7 0xffff in every dword.
TEXT ·packBlocksAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	SHRQ $2, DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	ANDQ $-4, CX
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  packdone
	VPBROADCASTQ fmask+48(FP), Y4
	VPBROADCASTQ fsign+56(FP), Y5
	VPBROADCASTQ bias+64(FP), Y6
	VPCMPEQD Y7, Y7, Y7
	VPSRLD   $16, Y7, Y7

pack:
	VPAND     (SI), Y7, Y0
	VPAND     32(SI), Y7, Y1
	VPACKUSDW Y1, Y0, Y0     // words 0, 2, 1, 3 of the block
	VPERMQ    $0xd8, Y0, Y0  // words 0, 1, 2, 3
	VPAND     Y4, Y0, Y1
	VPADDQ    Y6, Y1, Y1
	VPAND     Y5, Y0, Y2
	VPADDQ    Y2, Y2, Y2
	VPSUBQ    Y2, Y1, Y1     // raw&fmask + bias − (raw&fsign)<<1
	VMOVDQU   Y1, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	ADDQ      $4, BX
	CMPQ      BX, CX
	JLT       pack
	VZEROUPPER

packdone:
	MOVQ BX, ret+72(FP)
	RET

// func accumulateBlocksAVX2(dst []int32, src []uint64, one int32) int
//
// DI dst, SI src, CX the words to read (a multiple of 2), BX the words
// read; Y7 one in every dword.
TEXT ·accumulateBlocksAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	ANDQ $-2, CX
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  accdone
	MOVL         one+48(FP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7

acc:
	VPMOVZXWD (SI)(BX*8), Y0
	VPSUBD    Y7, Y0, Y0
	VPADDD    (DI), Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $2, BX
	CMPQ      BX, CX
	JLT       acc
	VZEROUPPER

accdone:
	MOVQ BX, ret+56(FP)
	RET

// func requantizeBlocksAVX2(dst, src []int32, scale float64, lo, hi int32) int
//
// DI dst, SI src, CX the elements to store (a multiple of 4), BX the
// elements stored; Y4 scale, X5 lo and X6 hi in every lane.
TEXT ·requantizeBlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	ANDQ $-4, CX
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  rqdone
	VBROADCASTSD scale+48(FP), Y4
	MOVL         lo+56(FP), AX
	VMOVD        AX, X5
	VPBROADCASTD X5, X5
	MOVL         hi+60(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, X6

rq:
	VCVTDQ2PD   (SI)(BX*4), Y0
	VMULPD      Y4, Y0, Y0
	VROUNDPD    $0, Y0, Y0   // to nearest, ties to even
	VCVTTPD2DQY Y0, X0
	VPMAXSD     X5, X0, X0
	VPMINSD     X6, X0, X0
	VMOVDQU     X0, (DI)(BX*4)
	ADDQ        $4, BX
	CMPQ        BX, CX
	JLT         rq
	VZEROUPPER

rqdone:
	MOVQ BX, ret+64(FP)
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
