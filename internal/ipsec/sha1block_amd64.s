//go:build amd64

#include "textflag.h"

// SHA-1 compression with the SHA extensions, after Intel's reference
// sequence. X0 holds ABCD (A in the top lane), X1/X2 take turns as E plus
// the next four schedule words, X3-X6 hold the message schedule, X7 is the
// byte-flip mask and X8/X9 the state entering the block.
#define ABCD X0
#define E0 X1
#define E1 X2

// ROUNDS runs rounds 4g..4g+3 (g mod 4 picks cur = m0) and advances the
// schedule: m1 gets SHA1MSG2 (next group), m2 the XOR (group after), m3
// SHA1MSG1 (the one after that). Schedule work past round 79, and into
// registers a later load overwrites, is computed and never read.
#define ROUNDS(add, f, m0, m1, m2, m3, ea, eb) \
	add       m0, ea;     \
	MOVO      ABCD, eb;   \
	SHA1MSG2  m0, m1;     \
	SHA1RNDS4 $f, ea, ABCD; \
	SHA1MSG1  m0, m3;     \
	PXOR      m0, m2

#define LOAD(off, m) \
	MOVOU off(SI), m; \
	PSHUFB X7, m

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX
	JZ   done

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  flip<>(SB), X7

loop:
	MOVO X1, X8
	MOVO ABCD, X9
	LOAD(0, X3)
	ROUNDS(PADDD, 0, X3, X4, X5, X6, E0, E1)
	LOAD(16, X4)
	ROUNDS(SHA1NEXTE, 0, X4, X5, X6, X3, E1, E0)
	LOAD(32, X5)
	ROUNDS(SHA1NEXTE, 0, X5, X6, X3, X4, E0, E1)
	LOAD(48, X6)
	ROUNDS(SHA1NEXTE, 0, X6, X3, X4, X5, E1, E0)
	ROUNDS(SHA1NEXTE, 0, X3, X4, X5, X6, E0, E1)
	ROUNDS(SHA1NEXTE, 1, X4, X5, X6, X3, E1, E0)
	ROUNDS(SHA1NEXTE, 1, X5, X6, X3, X4, E0, E1)
	ROUNDS(SHA1NEXTE, 1, X6, X3, X4, X5, E1, E0)
	ROUNDS(SHA1NEXTE, 1, X3, X4, X5, X6, E0, E1)
	ROUNDS(SHA1NEXTE, 1, X4, X5, X6, X3, E1, E0)
	ROUNDS(SHA1NEXTE, 2, X5, X6, X3, X4, E0, E1)
	ROUNDS(SHA1NEXTE, 2, X6, X3, X4, X5, E1, E0)
	ROUNDS(SHA1NEXTE, 2, X3, X4, X5, X6, E0, E1)
	ROUNDS(SHA1NEXTE, 2, X4, X5, X6, X3, E1, E0)
	ROUNDS(SHA1NEXTE, 2, X5, X6, X3, X4, E0, E1)
	ROUNDS(SHA1NEXTE, 3, X6, X3, X4, X5, E1, E0)
	ROUNDS(SHA1NEXTE, 3, X3, X4, X5, X6, E0, E1)
	ROUNDS(SHA1NEXTE, 3, X4, X5, X6, X3, E1, E0)
	ROUNDS(SHA1NEXTE, 3, X5, X6, X3, X4, E0, E1)
	ROUNDS(SHA1NEXTE, 3, X6, X3, X4, X5, E1, E0)

	// E0 holds E's rotate-pending value after round 79: SHA1NEXTE finishes
	// it while adding the entry state.
	SHA1NEXTE X8, E0
	PADDD     X9, ABCD
	ADDQ      $64, SI
	DECQ      DX
	JNZ       loop

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)

done:
	RET

// func hasSHANI() bool: the SHA extensions (CPUID leaf 7, EBX bit 29) with
// SSSE3 and SSE4.1 (leaf 1, ECX bits 9 and 19) for the shuffles and lanes.
TEXT ·hasSHANI(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	CPUID
	ANDL  $(1<<9|1<<19), CX
	CMPL  CX, $(1<<9|1<<19)
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $29, BX
	SETCS ret+0(FP)

no:
	RET

// flip reverses a 16-byte lane: four big-endian words, the first on top.
DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16
