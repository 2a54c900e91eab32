#include "textflag.h"

// Only SSE2 and general-purpose (BMI2, LZCNT) instructions: no Y register
// is touched, so no legacy-SSE/AVX transition penalty can arise here.

// COMPLY leaves X2 = (X1 & probe) == X1 per lane, with the probe
// broadcast in X0: the comply test pk&probe == pk for every partial key
// in the chunk X1.
#define COMPLY(cmpeq) \
	MOVO  X1, X2; \
	PAND  X0, X2; \
	cmpeq X1, X2

// func search(w, mask uint64, keys []byte, n, width int) int
//
// The dispatch lives here rather than in Go so that a node visit is one
// call: a Go wrapper would add a frame and a second call per visit. Both
// targets take this frame as it stands.
TEXT ·search(SB), NOSPLIT, $0-64
	CMPB ·Native(SB), $0
	JEQ  portable
	JMP  ·searchNative(SB)

portable:
	JMP ·searchGo(SB)

// func searchNative(w, mask uint64, keys []byte, n, width int) int
//
// AX probe, SI keys, BX len(keys), DX n, R9 comply bits, R10 chunk
// offset, R12 offset of the last chunk. An 8-byte keys array is one MOVQ;
// a longer one is read in 16-byte chunks whose last load ends exactly at
// len(keys), overlapping the chunk before it. The overlap is harmless —
// an overlapped lane gives the same bit twice and chunks are OR-ed — and
// nothing past len(keys) is ever read. Lanes the MOVQ zero-fills and
// lanes at n and above are cleared by BZHI before the bit scan.
TEXT ·searchNative(SB), NOSPLIT, $0-64
	MOVQ  w+0(FP), AX
	PEXTQ mask+8(FP), AX, AX
	MOVQ  keys_base+16(FP), SI
	MOVQ  keys_len+24(FP), BX
	MOVQ  n+40(FP), DX
	MOVQ  width+48(FP), CX
	MOVQ  AX, X0
	LEAQ  -16(BX), R12
	XORL  R9, R9
	XORL  R10, R10
	CMPQ  CX, $16
	JEQ   w16
	JHI   w32

	// Width 8: PMOVMSKB gives one bit per lane.
	PUNPCKLBW X0, X0
	PSHUFLW   $0, X0, X0
	PSHUFD    $0, X0, X0
	CMPQ      BX, $8
	JNE       w8loop
	MOVQ      (SI), X1
	COMPLY(PCMPEQB)
	PMOVMSKB  X2, R9
	JMP       scan

w8loop:
	CMPQ     R10, R12
	JGE      w8last
	MOVOU    (SI)(R10*1), X1
	COMPLY(PCMPEQB)
	PMOVMSKB X2, R11
	SHLXQ    R10, R11, R11
	ORQ      R11, R9
	ADDQ     $16, R10
	JMP      w8loop

w8last:
	MOVOU    (SI)(R12*1), X1
	COMPLY(PCMPEQB)
	PMOVMSKB X2, R11
	SHLXQ    R12, R11, R11
	ORQ      R11, R9
	JMP      scan

	// Width 16: PMOVMSKB gives two equal bits per lane, one byte each;
	// a PEXT of every other bit packs them to one bit per lane.
w16:
	PSHUFLW  $0, X0, X0
	PSHUFD   $0, X0, X0
	CMPQ     BX, $8
	JNE      w16loop
	MOVQ     (SI), X1
	COMPLY(PCMPEQW)
	PMOVMSKB X2, R9
	JMP      w16pack

w16loop:
	CMPQ     R10, R12
	JGE      w16last
	MOVOU    (SI)(R10*1), X1
	COMPLY(PCMPEQW)
	PMOVMSKB X2, R11
	SHLXQ    R10, R11, R11
	ORQ      R11, R9
	ADDQ     $16, R10
	JMP      w16loop

w16last:
	MOVOU    (SI)(R12*1), X1
	COMPLY(PCMPEQW)
	PMOVMSKB X2, R11
	SHLXQ    R12, R11, R11
	ORQ      R11, R9

w16pack:
	MOVQ  $0x5555555555555555, R11
	PEXTQ R11, R9, R9
	JMP   scan

	// Width 32: MOVMSKPS gives one bit per lane; a chunk at byte offset
	// o holds lanes o/4 and up.
w32:
	PSHUFD   $0, X0, X0
	CMPQ     BX, $8
	JNE      w32loop
	MOVQ     (SI), X1
	COMPLY(PCMPEQL)
	MOVMSKPS X2, R9
	JMP      scan

w32loop:
	CMPQ     R10, R12
	JGE      w32last
	MOVOU    (SI)(R10*1), X1
	COMPLY(PCMPEQL)
	MOVMSKPS X2, R11
	MOVQ     R10, R13
	SHRQ     $2, R13
	SHLXQ    R13, R11, R11
	ORQ      R11, R9
	ADDQ     $16, R10
	JMP      w32loop

w32last:
	MOVOU    (SI)(R12*1), X1
	COMPLY(PCMPEQL)
	MOVMSKPS X2, R11
	SHRQ     $2, R12
	SHLXQ    R12, R11, R11
	ORQ      R11, R9

	// The highest comply bit below n: 31 - LZCNT, -1 when there is none.
scan:
	BZHIQ  DX, R9, R9
	LZCNTL R9, R9
	MOVQ   $31, AX
	SUBQ   R9, AX
	MOVQ   AX, ret+56(FP)
	RET

// func pext(v, mask uint64) uint64
TEXT ·pext(SB), NOSPLIT, $0-24
	CMPB ·Native(SB), $0
	JEQ  portable
	JMP  ·pextNative(SB)

portable:
	JMP ·pextGo(SB)

// func pextNative(v, mask uint64) uint64
TEXT ·pextNative(SB), NOSPLIT, $0-24
	MOVQ  v+0(FP), AX
	PEXTQ mask+8(FP), AX, AX
	MOVQ  AX, ret+16(FP)
	RET

// func Prefetch(p unsafe.Pointer)
//
// PrefetchLines (8) consecutive lines; keep the two in step.
TEXT ·Prefetch(SB), NOSPLIT, $0-8
	MOVQ       p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	PREFETCHT0 256(AX)
	PREFETCHT0 320(AX)
	PREFETCHT0 384(AX)
	PREFETCHT0 448(AX)
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
