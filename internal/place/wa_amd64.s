#include "textflag.h"

// Lanes 0–3 of every vector are a net's x max side, x min side, y max
// side and y min side: a pin's pinExp {ux, vx, uy, vy} as it lies in
// memory, against its position spread to [x, x, y, y].

DATA wac<>+0(SB)/8, $1.0
DATA wac<>+8(SB)/8, $1.0
DATA wac<>+16(SB)/8, $1.0
DATA wac<>+24(SB)/8, $1.0
DATA wac<>+32(SB)/8, $0                  // sign flips of the min-side
DATA wac<>+40(SB)/8, $0x8000000000000000 // lanes: 1 − t as 1 + (−t)
DATA wac<>+48(SB)/8, $0
DATA wac<>+56(SB)/8, $0x8000000000000000
GLOBL wac<>(SB), RODATA, $64

// func waNets(netStart, slotPin []int32, force []bool, wnet []float64, pos []geom.Point, exps []pinExp, grad []geom.Point, ig float64, lo, hi int)
TEXT ·waNets(SB), NOSPLIT, $0-192
	MOVQ         netStart_base+0(FP), R8
	MOVQ         slotPin_base+24(FP), R9
	MOVQ         force_base+48(FP), R10
	MOVQ         wnet_base+72(FP), R11
	MOVQ         pos_base+96(FP), R12
	MOVQ         exps_base+120(FP), R13
	MOVQ         grad_base+144(FP), R14
	VBROADCASTSD ig+168(FP), Y15
	VMOVUPD      wac<>+0(SB), Y14
	VMOVUPD      wac<>+32(SB), Y13
	MOVQ         lo+176(FP), AX

net:
	CMPQ    AX, hi+184(FP)
	JGE     done
	MOVBLZX (R10)(AX*1), DX
	TESTL   DX, DX
	JZ      next                // no force: its slots stay as they are
	MOVLQSX (R8)(AX*4), SI
	MOVLQSX 4(R8)(AX*4), DI
	MOVQ    SI, BX
	SHLQ    $4, BX
	ADDQ    R14, BX             // BX = &grad[s0]
	LEAQ    (R9)(SI*4), SI      // SI = &slotPin[s0]
	LEAQ    (R9)(DI*4), DI      // DI = &slotPin[s1]
	VXORPD  Y0, Y0, Y0          // Σe
	VXORPD  Y1, Y1, Y1          // Σx·e
	MOVQ    SI, CX

	// A net with force has at least two pins.
sum:
	MOVLQSX        (CX), DX
	SHLQ           $4, DX              // pos[i] at 16·i, exps[i] at 32·i
	VMOVUPD        (R13)(DX*2), Y2
	VBROADCASTF128 (R12)(DX*1), Y3
	VPERMILPD      $0xC, Y3, Y3        // [x, x, y, y]
	VADDPD         Y2, Y0, Y0
	VMULPD         Y2, Y3, Y3
	VADDPD         Y3, Y1, Y1
	ADDQ           $4, CX
	CMPQ           CX, DI
	JLT            sum

	VDIVPD       Y0, Y14, Y4     // 1/Σe
	VMULPD       Y4, Y1, Y5      // the means f, m: Σx·e · 1/Σe
	VBROADCASTSD (R11)(AX*8), Y6
	VMULPD       Y6, Y4, Y4      // wt · 1/Σe
	MOVQ         SI, CX

grad:
	MOVLQSX        (CX), DX
	SHLQ           $4, DX
	VMULPD         (R13)(DX*2), Y4, Y2 // the shares ra, rb: e · wt/Σe
	VBROADCASTF128 (R12)(DX*1), Y3
	VPERMILPD      $0xC, Y3, Y3
	VSUBPD         Y5, Y3, Y3          // x − f, x − m
	VMULPD         Y15, Y3, Y3         // · 1/γ
	VXORPD         Y13, Y3, Y3
	VADDPD         Y14, Y3, Y3         // 1 + …, 1 − …
	VMULPD         Y3, Y2, Y2
	VEXTRACTF128   $1, Y2, X3
	VUNPCKLPD      X3, X2, X6          // max sides, x and y
	VUNPCKHPD      X3, X2, X7          // min sides
	VSUBPD         X7, X6, X6
	VMOVUPD        X6, (BX)            // grad[s] = (∂/∂x, ∂/∂y)
	ADDQ           $16, BX
	ADDQ           $4, CX
	CMPQ           CX, DI
	JLT            grad

next:
	INCQ AX
	JMP  net

done:
	VZEROUPPER
	RET
