#include "textflag.h"

// Operands are in Go assembler order (source, destination): MULPD X8, X9
// is X9 = X9 * X8, and VMULPD Y8, Y10, Y11 is Y11 = Y10 * Y8. Each packed
// operation rounds each lane exactly as the scalar instruction does, and
// none is fused or reassociated. An AVX kernel returns at once, having
// run no AVX instruction, when ·hasAVX is false, and runs VZEROUPPER
// before every other RET.

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func adamPairs(w, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64) int
TEXT ·adamPairs(SB), NOSPLIT, $0-168
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	ANDQ $-2, CX
	MOVQ CX, ret+160(FP)
	JZ   adamDone
	MOVSD    b1+96(FP), X0
	UNPCKLPD X0, X0
	MOVSD    c1+104(FP), X1
	UNPCKLPD X1, X1
	MOVSD    b2+112(FP), X2
	UNPCKLPD X2, X2
	MOVSD    c2+120(FP), X3
	UNPCKLPD X3, X3
	MOVSD    bc1+128(FP), X4
	UNPCKLPD X4, X4
	MOVSD    bc2+136(FP), X5
	UNPCKLPD X5, X5
	MOVSD    lr+144(FP), X6
	UNPCKLPD X6, X6
	MOVSD    eps+152(FP), X7
	UNPCKLPD X7, X7
	XORPD    X14, X14
	XORQ     AX, AX
	MOVQ     $0x3ff0000000000000, R10
	SUBQ     bc1+128(FP), R10 // 0 when bc1 is exactly 1.0

adamLoop:
	MOVUPD (SI)(AX*8), X8  // g
	MOVUPD (R8)(AX*8), X9
	MULPD  X0, X9          // b1*m
	MOVAPD X1, X10
	MULPD  X8, X10         // c1*g
	ADDPD  X10, X9         // mi = b1*m + c1*g
	MOVUPD X9, (R8)(AX*8)
	MOVUPD (R9)(AX*8), X11
	MULPD  X2, X11         // b2*v
	MOVAPD X3, X12
	MULPD  X8, X12         // c2*g
	MULPD  X8, X12         // (c2*g)*g
	ADDPD  X12, X11        // vi = b2*v + (c2*g)*g
	MOVUPD X11, (R9)(AX*8)
	TESTQ  R10, R10
	JZ     adamMhat        // mi/1.0 is mi, bit for bit
	DIVPD  X4, X9          // mhat = mi/bc1

adamMhat:
	DIVPD  X5, X11         // vhat = vi/bc2
	SQRTPD X11, X11
	ADDPD  X7, X11         // sqrt(vhat) + eps
	MULPD  X6, X9          // lr*mhat
	DIVPD  X11, X9         // (lr*mhat) / (sqrt(vhat) + eps)
	MOVUPD (DI)(AX*8), X13
	SUBPD  X9, X13
	MOVUPD X13, (DI)(AX*8)
	MOVUPD X14, (SI)(AX*8) // g = 0
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    adamLoop

adamDone:
	RET

// func forwardRows8(w, x, b, y []float64) int
//
// Rows 2k and 2k+1 of a block of eight share accumulator Xk, low lane and
// high lane, initialised from the bias; each lane adds w[row][i]*x[i] for
// i = 0, 1, … exactly as the one-row loop does.
TEXT ·forwardRows8(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), BX
	MOVQ x_len+32(FP), CX
	MOVQ b_base+48(FP), R11
	MOVQ y_base+72(FP), R12
	MOVQ y_len+80(FP), R13
	ANDQ $-8, R13
	MOVQ R13, ret+96(FP)
	JZ   fwdDone
	MOVQ CX, DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (DX)(DX*2), R10   // three row strides

fwdRows:
	MOVUPD (R11), X0
	MOVUPD 16(R11), X1
	MOVUPD 32(R11), X2
	MOVUPD 48(R11), X3
	MOVQ   SI, R8          // rows 0-3 at column i
	LEAQ   (SI)(DX*4), R9  // rows 4-7 at column i
	MOVQ   BX, AX          // x[i]
	MOVQ   CX, DI
	TESTQ  DI, DI
	JZ     fwdStore

fwdCols:
	MOVSD    (AX), X8
	UNPCKLPD X8, X8
	MOVSD    (R8), X9
	MOVHPD   (R8)(DX*1), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVSD    (R8)(DX*2), X10
	MOVHPD   (R8)(R10*1), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVSD    (R9), X11
	MOVHPD   (R9)(DX*1), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVSD    (R9)(DX*2), X12
	MOVHPD   (R9)(R10*1), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	ADDQ     $8, AX
	ADDQ     $8, R8
	ADDQ     $8, R9
	DECQ     DI
	JNZ      fwdCols

fwdStore:
	MOVUPD X0, (R12)
	MOVUPD X1, 16(R12)
	MOVUPD X2, 32(R12)
	MOVUPD X3, 48(R12)
	ADDQ   $64, R11
	ADDQ   $64, R12
	LEAQ   (SI)(DX*8), SI
	SUBQ   $8, R13
	JNZ    fwdRows

fwdDone:
	RET

// func backwardCols(x, gradOut, w, gw, gradIn []float64) int
//
// Eight columns per pass, then four: each column's two sums are a lane,
// and the rows are taken in order, so every element adds its products in
// the scalar loop's order.
TEXT ·backwardCols(SB), NOSPLIT, $0-128
	MOVQ $0, ret+120(FP)
	CMPB ·hasAVX(SB), $0
	JEQ  bwdNone
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ DX, CX
	ANDQ $-4, CX
	MOVQ CX, ret+120(FP)
	JZ   bwdNone
	SHLQ $3, DX            // row stride in bytes
	MOVQ gradOut_base+24(FP), BX
	MOVQ gradOut_len+32(FP), R13
	MOVQ w_base+48(FP), R8
	MOVQ gw_base+72(FP), R9
	MOVQ gradIn_base+96(FP), R10
	VXORPD X7, X7, X7
	TESTQ R13, R13
	JZ    bwdDone

bwdRows:
	VMOVSD   (BX), X0
	VUCOMISD X7, X0
	JNE      bwdRow
	JPS      bwdRow        // NaN compares unordered, not equal: not skipped
	JMP      bwdNext

bwdRow:
	VBROADCASTSD (BX), Y0
	XORQ         AX, AX
	CMPQ         CX, $8
	JLT          bwdCols4

bwdCols8: // two independent quads per iteration
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y1, Y1     // x*g
	VMULPD  Y0, Y5, Y5
	VMOVUPD (R9)(AX*8), Y2
	VMOVUPD 32(R9)(AX*8), Y6
	VADDPD  Y1, Y2, Y2     // grow += x*g
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y2, (R9)(AX*8)
	VMOVUPD Y6, 32(R9)(AX*8)
	VMOVUPD (R8)(AX*8), Y3
	VMOVUPD 32(R8)(AX*8), Y8
	VMULPD  Y0, Y3, Y3     // w*g
	VMULPD  Y0, Y8, Y8
	VMOVUPD (R10)(AX*8), Y4
	VMOVUPD 32(R10)(AX*8), Y9
	VADDPD  Y3, Y4, Y4     // gradIn += w*g
	VADDPD  Y8, Y9, Y9
	VMOVUPD Y4, (R10)(AX*8)
	VMOVUPD Y9, 32(R10)(AX*8)
	ADDQ    $8, AX
	LEAQ    8(AX), R11
	CMPQ    R11, CX
	JLE     bwdCols8
	CMPQ    AX, CX
	JGE     bwdNext

bwdCols4: // at most once: CX is a multiple of four
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (R9)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (R9)(AX*8)
	VMOVUPD (R8)(AX*8), Y3
	VMULPD  Y0, Y3, Y3
	VMOVUPD (R10)(AX*8), Y4
	VADDPD  Y3, Y4, Y4
	VMOVUPD Y4, (R10)(AX*8)

bwdNext:
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ $8, BX
	DECQ R13
	JNZ  bwdRows

bwdDone:
	VZEROUPPER

bwdNone:
	RET

// func forwardBatch(w, x, b, y []float64, in, batch int) int
//
// x and y are feature-major: x[i*batch+s] is input i of sample s and
// y[o*batch+s] output o. A block is two rows × eight samples in four
// accumulators, two rows × four samples in two, or two rows × two
// samples in the low halves of two: each lane is one (row, sample)
// output, initialised from the row's bias and adding x[i][s]*w[row][i]
// for i = 0, 1, … exactly as the one-row loop does. Each x load serves
// both rows as the multiply's first operand; the product commutes, and
// only a NaN × NaN product can carry the other operand's payload. Rows
// len(b)&^1 and samples batch&^1 are done; 0 when either is 0.
TEXT ·forwardBatch(SB), NOSPLIT, $0-120
	MOVQ $0, ret+112(FP)
	CMPB ·hasAVX(SB), $0
	JEQ  fbNone
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), BX
	MOVQ b_base+48(FP), R11
	MOVQ b_len+56(FP), R13
	MOVQ y_base+72(FP), R12
	MOVQ in+96(FP), CX
	MOVQ batch+104(FP), R10
	SHRQ $1, R13           // row pairs
	JZ   fbNone
	MOVQ R10, R15
	ANDQ $-2, R15          // samples done
	JZ   fbNone
	MOVQ R15, ret+112(FP)
	SHLQ $3, R15           // samples done, in bytes
	MOVQ CX, DX
	SHLQ $3, DX            // weight row stride in bytes
	SHLQ $3, R10           // x feature stride = y row stride, in bytes

fbRows:
	XORQ R8, R8            // sample offset in bytes

fbBlock8:
	LEAQ         64(R8), AX
	CMPQ         AX, R15
	JGT          fbBlock4
	VBROADCASTSD (R11), Y0 // bias of row 0
	VMOVAPD      Y0, Y1
	VBROADCASTSD 8(R11), Y2 // bias of row 1
	VMOVAPD      Y2, Y3
	LEAQ         (BX)(R8*1), AX // x[0][s]
	MOVQ         SI, R9         // w[row 0][0]
	MOVQ         CX, DI
	TESTQ        DI, DI
	JZ           fb8Store

fb8Cols:
	VBROADCASTSD (R9), Y8       // w[row 0][i]
	VBROADCASTSD (R9)(DX*1), Y9 // w[row 1][i]
	VMOVUPD      (AX), Y10
	VMOVUPD      32(AX), Y13
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y2, Y2
	VADDPD       Y14, Y1, Y1
	VADDPD       Y15, Y3, Y3
	ADDQ         $8, R9
	ADDQ         R10, AX
	DECQ         DI
	JNZ          fb8Cols

fb8Store:
	LEAQ    (R12)(R8*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    R10, AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	ADDQ    $64, R8
	JMP     fbBlock8

fbBlock4: // at most once: fewer than eight samples are left
	LEAQ         32(R8), AX
	CMPQ         AX, R15
	JGT          fbBlock2
	VBROADCASTSD (R11), Y0
	VBROADCASTSD 8(R11), Y4
	LEAQ         (BX)(R8*1), AX
	MOVQ         SI, R9
	MOVQ         CX, DI
	TESTQ        DI, DI
	JZ           fb4Store

fb4Cols:
	VBROADCASTSD (R9), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMOVUPD      (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y4, Y4
	ADDQ         $8, R9
	ADDQ         R10, AX
	DECQ         DI
	JNZ          fb4Cols

fb4Store:
	LEAQ    (R12)(R8*1), AX
	VMOVUPD Y0, (AX)
	ADDQ    R10, AX
	VMOVUPD Y4, (AX)
	ADDQ    $32, R8

fbBlock2: // at most once: R15 is a multiple of two samples
	CMPQ     R8, R15
	JGE      fbNextRows
	VMOVDDUP (R11), X0
	VMOVDDUP 8(R11), X4
	LEAQ     (BX)(R8*1), AX
	MOVQ     SI, R9
	MOVQ     CX, DI
	TESTQ    DI, DI
	JZ       fb2Store

fb2Cols:
	VMOVDDUP (R9), X8
	VMOVDDUP (R9)(DX*1), X9
	VMOVUPD  (AX), X10
	VMULPD   X8, X10, X11
	VADDPD   X11, X0, X0
	VMULPD   X9, X10, X12
	VADDPD   X12, X4, X4
	ADDQ     $8, R9
	ADDQ     R10, AX
	DECQ     DI
	JNZ      fb2Cols

fb2Store:
	LEAQ    (R12)(R8*1), AX
	VMOVUPD X0, (AX)
	ADDQ    R10, AX
	VMOVUPD X4, (AX)

fbNextRows:
	LEAQ (SI)(DX*2), SI
	ADDQ $16, R11
	LEAQ (R12)(R10*2), R12
	DECQ R13
	JNZ  fbRows
	VZEROUPPER

fbNone:
	RET
