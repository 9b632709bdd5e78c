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

// CMULR is CMUL with the twiddle's real parts in re and its signed
// imaginary parts in im.
#define CMULR(x, re, im, tmp, dst) \
	VPERMILPD $5, x, tmp; \
	VMULPD    im, tmp, tmp; \
	VMULPD    re, x, dst;   \
	VADDPD    tmp, dst, dst

// func gatherPairAVX(dst, src []complex128, rev []int, w []float64)
//
// fusedPairAVX's butterflies on the groups of two adjacent source indices
// r, r+1 (r even). Register use: SI walks the first quarter of src and CX
// (one quarter's bytes, 4n) and BX (three quarters', 12n) reach the
// others; R9 walks rev two entries at a time; AX is lane 0's group, and
// lane 1's sits 2CX (8n) bytes after it. Y8-Y13 hold wa, wb and wc.
TEXT ·gatherPairAVX(SB), NOSPLIT, $0-96
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	MOVQ    rev_base+48(FP), R9
	MOVQ    rev_len+56(FP), R8
	MOVQ    w_base+72(FP), DX
	SHLQ    $2, CX             // n/4 points of 16 bytes = 4n bytes
	LEAQ    (CX)(CX*2), BX
	SHLQ    $4, R8
	ADDQ    SI, R8             // end of the first quarter
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD 64(DX), Y10
	VMOVUPD 96(DX), Y11
	VMOVUPD 128(DX), Y12
	VMOVUPD 160(DX), Y13

gloop:
	VMOVUPD (SI), Y0            // a = src[r], src[r+1]
	VMOVUPD (SI)(CX*2), Y1      // b = src[r+n/2]
	VMOVUPD (SI)(CX*1), Y2      // c = src[r+n/4]
	VMOVUPD (SI)(BX*1), Y3      // d = src[r+3n/4]
	CMULR(Y1, Y8, Y9, Y4, Y1)   // ob = b*wa
	CMULR(Y3, Y8, Y9, Y5, Y3)   // od = d*wa
	VSUBPD Y1, Y0, Y4           // b = a - ob
	VADDPD Y1, Y0, Y0           // a = a + ob
	VSUBPD Y3, Y2, Y5           // d = c - od
	VADDPD Y3, Y2, Y2           // c = c + od
	CMULR(Y2, Y10, Y11, Y1, Y2) // oc = c*wb
	CMULR(Y5, Y12, Y13, Y3, Y5) // od = d*wc
	VADDPD Y2, Y0, Y1           // a + oc
	VSUBPD Y2, Y0, Y0           // a - oc
	VADDPD Y5, Y4, Y3           // b + od
	VSUBPD Y5, Y4, Y4           // b - od
	MOVQ   (R9), AX
	SHLQ   $6, AX
	ADDQ   DI, AX               // group rev[r]
	VMOVUPD      X1, (AX)
	VMOVUPD      X3, 16(AX)
	VMOVUPD      X0, 32(AX)
	VMOVUPD      X4, 48(AX)
	VEXTRACTF128 $1, Y1, (AX)(CX*2)
	VEXTRACTF128 $1, Y3, 16(AX)(CX*2)
	VEXTRACTF128 $1, Y0, 32(AX)(CX*2)
	VEXTRACTF128 $1, Y4, 48(AX)(CX*2)
	ADDQ   $32, SI
	ADDQ   $16, R9
	CMPQ   SI, R8
	JB     gloop

	VZEROUPPER
	RET

// func realPairAVX(dst []complex128, x []float64, rev []int, wr, wi float64)
//
// realGroup's operations on four adjacent source indices r..r+3 (r a
// multiple of 4), one per lane; under the real gate no value is a NaN,
// so operand order moves no bit. The unpacks pair each lane's parts into
// 128-bit complex values: lanes 0 and 2 in the low and high halves of
// the UNPCKL results, lanes 1 and 3 in the UNPCKH results. Register use:
// SI walks the first quarter of x and CX (one quarter's bytes, 2n) and
// BX (three quarters', 6n) reach the others; R9 walks rev four entries at
// a time; AX is lane 0's group, and lanes 2, 1 and 3 sit 2CX (4n), 4CX
// (8n) and 2BX (12n) bytes after it. Y13 holds +0.
TEXT ·realPairAVX(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	MOVQ         rev_base+48(FP), R9
	MOVQ         rev_len+56(FP), R8
	VBROADCASTSD wr+72(FP), Y14
	VBROADCASTSD wi+80(FP), Y15
	SHLQ         $1, CX         // n/4 float64s = 2n bytes
	LEAQ         (CX)(CX*2), BX
	LEAQ         (SI)(R8*8), R8 // end of the first quarter
	VXORPD       Y13, Y13, Y13

rloop:
	VMOVUPD (SI), Y0         // a
	VMOVUPD (SI)(CX*2), Y1   // b
	VMOVUPD (SI)(CX*1), Y2   // c
	VMOVUPD (SI)(BX*1), Y3   // d
	VADDPD  Y13, Y1, Y1      // bp = b + 0
	VADDPD  Y1, Y0, Y4       // s0 = a + bp
	VSUBPD  Y1, Y0, Y5       // d0 = a - bp
	VADDPD  Y3, Y2, Y6       // s1 = c + d
	VSUBPD  Y3, Y2, Y7       // d1 = c - d
	VMULPD  Y14, Y7, Y8
	VADDPD  Y13, Y8, Y8      // tr = d1*wr + 0
	VMULPD  Y15, Y7, Y9
	VADDPD  Y13, Y9, Y9      // ti = d1*wi + 0
	VADDPD  Y6, Y4, Y0       // s0 + s1
	VSUBPD  Y6, Y4, Y1       // s0 - s1
	VADDPD  Y8, Y5, Y2       // d0 + tr
	VSUBPD  Y8, Y5, Y3       // d0 - tr
	VSUBPD  Y9, Y13, Y10     // 0 - ti
	VUNPCKLPD Y13, Y0, Y4    // (s0+s1, 0)
	VUNPCKHPD Y13, Y0, Y5
	VUNPCKLPD Y9, Y2, Y6     // (d0+tr, ti)
	VUNPCKHPD Y9, Y2, Y7
	VUNPCKLPD Y13, Y1, Y8    // (s0-s1, 0)
	VUNPCKHPD Y13, Y1, Y11
	VUNPCKLPD Y10, Y3, Y12   // (d0-tr, 0-ti)
	VUNPCKHPD Y10, Y3, Y3
	MOVQ    (R9), AX
	SHLQ    $6, AX
	ADDQ    DI, AX           // group rev[r]
	VMOVUPD      X4, (AX)
	VMOVUPD      X6, 16(AX)
	VMOVUPD      X8, 32(AX)
	VMOVUPD      X12, 48(AX)
	VEXTRACTF128 $1, Y4, (AX)(CX*2)
	VEXTRACTF128 $1, Y6, 16(AX)(CX*2)
	VEXTRACTF128 $1, Y8, 32(AX)(CX*2)
	VEXTRACTF128 $1, Y12, 48(AX)(CX*2)
	VMOVUPD      X5, (AX)(CX*4)
	VMOVUPD      X7, 16(AX)(CX*4)
	VMOVUPD      X11, 32(AX)(CX*4)
	VMOVUPD      X3, 48(AX)(CX*4)
	VEXTRACTF128 $1, Y5, (AX)(BX*2)
	VEXTRACTF128 $1, Y7, 16(AX)(BX*2)
	VEXTRACTF128 $1, Y11, 32(AX)(BX*2)
	VEXTRACTF128 $1, Y3, 48(AX)(BX*2)
	ADDQ    $32, SI
	ADDQ    $32, R9
	CMPQ    SI, R8
	JB      rloop

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
