package nn

// The steady-state loops run their bulk in assembly (kernels_amd64.s),
// each lane one output row, one (row, sample) output or one parameter
// element, never a partial sum. forwardRows8 and adamPairs are SSE2, the
// amd64 baseline: two float64 lanes per instruction. forwardBatch and
// backwardCols are AVX, four lanes per instruction, and return 0 without
// touching anything when hasAVX is false. Each kernel does a prefix of
// its loop and returns how far it got; the Go loop that calls it
// finishes the rest with the same operations in the same order, so
// every element rounds exactly as the scalar loop rounds it.

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state.
// The AVX kernels read it; tests clear it to run the Go loops alone.
var hasAVX = detectAVX()

// detectAVX needs CPUID.1:ECX OSXSAVE (bit 27) and AVX (bit 28), and
// only then asks XGETBV, which faults without OSXSAVE, whether the OS
// enabled the XMM and YMM state (XCR0 bits 1 and 2).
func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32

// adamPairs runs Adam's update on the first len(w)&^1 elements of w, g,
// m and v (all at least len(w) long) and returns that count. When bc1 is
// exactly 1 it skips the division by it, which would return mi unchanged.
//
//go:noescape
func adamPairs(w, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64) int

// forwardRows8 computes y = W·x + b for the first len(y)&^7 rows, eight
// per pass over x, and returns that count. w holds at least that many
// rows of len(x) weights.
//
//go:noescape
func forwardRows8(w, x, b, y []float64) int

// forwardBatch computes y = W·x + b on feature-major slabs (x[i*batch+s],
// y[o*batch+s]) for rows len(b)&^1 and samples batch&^1, and returns that
// sample count, or 0 when it did nothing. w holds len(b) rows of in
// weights.
//
//go:noescape
func forwardBatch(w, x, b, y []float64, in, batch int) int

// backwardCols accumulates grow += g·x and gradIn += g·wrow over the
// first len(x)&^3 columns of every row whose upstream gradient g is
// nonzero, in row order, and returns that column count, or 0 when it did
// nothing. w and gw hold len(gradOut) rows of len(x); gradIn is at least
// len(x) long.
//
//go:noescape
func backwardCols(x, gradOut, w, gw, gradIn []float64) int
