#include "textflag.h"

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

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// CMUL sets dst to x*w for the two complex values of x, with the real
// parts of w at off(SI) and its signed imaginary parts 32 bytes further:
// dst = x*(c, c, c', c') + swap(x)*(-d, d, -d', d'). tmp must differ
// from dst and is clobbered; dst may be x.
#define CMUL(x, off, tmp, dst) \
	VPERMILPD $5, x, tmp;          \
	VMULPD    (off+32)(SI), tmp, tmp; \
	VMULPD    off(SI), x, dst;     \
	VADDPD    tmp, dst, dst

// func fusedPairAVX(x []complex128, w []float64)
//
// Register use: DI walks the first quarter and CX (one quarter's bytes)
// and BX (three quarters') reach the others; SI walks the twiddles, 192
// bytes per k pair: wa at 0, wb at 64, wc at 128.
TEXT ·fusedPairAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	SHLQ $2, CX                // h points of 16 bytes = len(x)*4 bytes
	LEAQ (CX)(CX*2), BX
	LEAQ (DI)(CX*1), R8        // end of the first quarter

loop:
	VMOVUPD (DI), Y0           // a
	VMOVUPD (DI)(CX*1), Y1     // b
	VMOVUPD (DI)(CX*2), Y2     // c
	VMOVUPD (DI)(BX*1), Y3     // d
	CMUL(Y1, 0, Y4, Y1)        // ob = b*wa
	CMUL(Y3, 0, Y5, Y3)        // od = d*wa
	VSUBPD Y1, Y0, Y4          // b = a - ob
	VADDPD Y1, Y0, Y0          // a = a + ob
	VSUBPD Y3, Y2, Y5          // d = c - od
	VADDPD Y3, Y2, Y2          // c = c + od
	CMUL(Y2, 64, Y1, Y2)       // oc = c*wb
	CMUL(Y5, 128, Y3, Y5)      // od = d*wc
	VADDPD Y2, Y0, Y1          // a + oc
	VSUBPD Y2, Y0, Y0          // a - oc
	VADDPD Y5, Y4, Y3          // b + od
	VSUBPD Y5, Y4, Y4          // b - od
	VMOVUPD Y1, (DI)
	VMOVUPD Y3, (DI)(CX*1)
	VMOVUPD Y0, (DI)(CX*2)
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ $32, DI
	ADDQ $192, SI
	CMPQ DI, R8
	JB   loop

	VZEROUPPER
	RET

// func finiteAVX(x []complex128) bool
//
// Each v - v is +0 for a finite v and NaN otherwise, so every lane sum is
// +0 exactly when every part is finite, in any order.
TEXT ·finiteAVX(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ CX, $4
	JB   fold

loop4:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VSUBPD  Y2, Y2, Y2
	VSUBPD  Y3, Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $64, SI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     loop4

fold:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	TESTQ        CX, CX
	JZ           done

loop1:
	VMOVUPD (SI), X2
	VSUBPD  X2, X2, X2
	VADDPD  X2, X0, X0
	ADDQ    $16, SI
	DECQ    CX
	JNZ     loop1

done:
	VXORPD    X1, X1, X1
	VCMPPD    $0, X1, X0, X0   // EQ_OQ: a NaN lane compares false
	VMOVMSKPD X0, AX
	CMPQ      AX, $3
	SETEQ     ret+24(FP)
	VZEROUPPER
	RET

// func realFastOKAVX(x []float64, scale float64) bool
//
// As finiteAVX, over v*scale: the tail's single float loads as (v, +0).
TEXT ·realFastOKAVX(SB), NOSPLIT, $0-33
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD scale+24(FP), Y4
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	CMPQ         CX, $8
	JB           fold

loop8:
	VMULPD (SI), Y4, Y2
	VMULPD 32(SI), Y4, Y3
	VSUBPD Y2, Y2, Y2
	VSUBPD Y3, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	ADDQ   $64, SI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JAE    loop8

fold:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	CMPQ         CX, $2
	JB           tail

loop2:
	VMULPD (SI), X4, X2
	VSUBPD X2, X2, X2
	VADDPD X2, X0, X0
	ADDQ   $16, SI
	SUBQ   $2, CX
	CMPQ   CX, $2
	JAE    loop2

tail:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (SI), X2
	VMULPD X4, X2, X2
	VSUBPD X2, X2, X2
	VADDPD X2, X0, X0

done:
	VXORPD    X1, X1, X1
	VCMPPD    $0, X1, X0, X0   // EQ_OQ: a NaN lane compares false
	VMOVMSKPD X0, AX
	CMPQ      AX, $3
	SETEQ     ret+32(FP)
	VZEROUPPER
	RET
