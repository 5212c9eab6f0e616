#include "textflag.h"

// The constants of Go's amd64 exponential (math/exp_amd64.s), spelled
// as it spells them, each in all four lanes of a 32-byte row.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12
#define ROW(off, v) DATA expc<>+(off)(SB)/8, v; DATA expc<>+(off+8)(SB)/8, v; DATA expc<>+(off+16)(SB)/8, v; DATA expc<>+(off+24)(SB)/8, v

ROW(0, $0x7fffffffffffffff) // |x| mask
ROW(32, $700.0)             // expRange
ROW(64, $LOG2E)
ROW(96, $LN2U)
ROW(128, $LN2L)
ROW(160, $0.0625)
ROW(192, $2.4801587301587301587e-5)
ROW(224, $1.9841269841269841270e-4)
ROW(256, $1.3888888888888888889e-3)
ROW(288, $8.3333333333333333333e-3)
ROW(320, $4.1666666666666666667e-2)
ROW(352, $1.6666666666666666667e-1)
ROW(384, $0.5)
ROW(416, $1.0)
ROW(448, $2.0)
ROW(480, $1023)             // exponent bias, int64
GLOBL expc<>(SB), RODATA, $512

// func expKernel(dst, src []float64) int
TEXT ·expKernel(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	XORQ    AX, AX
	VMOVUPD expc<>+0(SB), Y8
	VMOVUPD expc<>+32(SB), Y9
	VMOVUPD expc<>+448(SB), Y10

block:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       done
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    Y8, Y0, Y5
	VCMPPD    $0x12, Y9, Y5, Y5 // |x| ≤ 700, ordered: false on NaN
	VMOVMSKPD Y5, DX
	CMPL      DX, $15
	JNE       done

	// k = round(x·log₂e), half to even as CVTSD2SL rounds
	VMULPD     expc<>+64(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// r = (x − k·LN2U − k·LN2L)·0.0625, as the avxfma path
	VFNMADD231PD expc<>+96(SB), Y1, Y0
	VFNMADD231PD expc<>+128(SB), Y1, Y0
	VMULPD       expc<>+160(SB), Y0, Y0

	// Taylor series in fused Horner steps
	VMOVUPD     expc<>+192(SB), Y3
	VFMADD213PD expc<>+224(SB), Y0, Y3
	VFMADD213PD expc<>+256(SB), Y0, Y3
	VFMADD213PD expc<>+288(SB), Y0, Y3
	VFMADD213PD expc<>+320(SB), Y0, Y3
	VFMADD213PD expc<>+352(SB), Y0, Y3
	VFMADD213PD expc<>+384(SB), Y0, Y3
	VFMADD213PD expc<>+416(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0

	// four squarings, r ← r·(r + 2), the last fused with its +1
	VADDPD      Y10, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      Y10, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      Y10, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      Y10, Y0, Y3
	VFMADD213PD expc<>+416(SB), Y3, Y0

	// times 2^k, exact: |k| ≤ 1010 keeps k + 1023 inside the normal range
	VPMOVSXDQ X2, Y4
	VPADDQ    expc<>+480(SB), Y4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     block

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
