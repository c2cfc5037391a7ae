#include "textflag.h"

// Operands are in Go assembler order (source, destination): MULPD X8, X9
// is X9 = X9 * X8. Each packed operation rounds each lane exactly as the
// scalar instruction does, and none is fused or reassociated.

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
	DIVPD  X4, X9          // mhat = mi/bc1
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

// func backwardPairs(x, gradOut, w, gw, gradIn []float64) int
TEXT ·backwardPairs(SB), NOSPLIT, $0-128
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ DX, CX
	ANDQ $-2, CX
	MOVQ CX, ret+120(FP)
	JZ   bwdDone
	SHLQ $3, DX            // row stride in bytes
	MOVQ gradOut_base+24(FP), BX
	MOVQ gradOut_len+32(FP), R13
	MOVQ w_base+48(FP), R8
	MOVQ gw_base+72(FP), R9
	MOVQ gradIn_base+96(FP), R10
	XORPD X7, X7
	TESTQ R13, R13
	JZ    bwdDone

bwdRows:
	MOVSD   (BX), X0
	UCOMISD X7, X0
	JNE     bwdRow
	JPS     bwdRow         // NaN compares unordered, not equal: not skipped
	JMP     bwdNext

bwdRow:
	UNPCKLPD X0, X0
	XORQ     AX, AX
	CMPQ     CX, $4
	JLT      bwdCols

bwdCols4: // two independent pairs per iteration
	MOVUPD (SI)(AX*8), X1
	MOVUPD 16(SI)(AX*8), X5
	MULPD  X0, X1
	MULPD  X0, X5
	MOVUPD (R9)(AX*8), X2
	MOVUPD 16(R9)(AX*8), X6
	ADDPD  X1, X2
	ADDPD  X5, X6
	MOVUPD X2, (R9)(AX*8)
	MOVUPD X6, 16(R9)(AX*8)
	MOVUPD (R8)(AX*8), X3
	MOVUPD 16(R8)(AX*8), X8
	MULPD  X0, X3
	MULPD  X0, X8
	MOVUPD (R10)(AX*8), X4
	MOVUPD 16(R10)(AX*8), X9
	ADDPD  X3, X4
	ADDPD  X8, X9
	MOVUPD X4, (R10)(AX*8)
	MOVUPD X9, 16(R10)(AX*8)
	ADDQ   $4, AX
	LEAQ   4(AX), R11
	CMPQ   R11, CX
	JLE    bwdCols4
	CMPQ   AX, CX
	JGE    bwdNext

bwdCols:
	MOVUPD (SI)(AX*8), X1
	MULPD  X0, X1          // g*x
	MOVUPD (R9)(AX*8), X2
	ADDPD  X1, X2          // grow += g*x
	MOVUPD X2, (R9)(AX*8)
	MOVUPD (R8)(AX*8), X3
	MULPD  X0, X3          // g*w
	MOVUPD (R10)(AX*8), X4
	ADDPD  X3, X4          // gradIn += g*w
	MOVUPD X4, (R10)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    bwdCols

bwdNext:
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ $8, BX
	DECQ R13
	JNZ  bwdRows

bwdDone:
	RET
