package nn

// The steady-state loops run their bulk in SSE2 assembly
// (kernels_amd64.s): two float64 lanes per instruction, each lane one
// output row or one parameter element, never a partial sum. SSE2 is the
// amd64 baseline, so there is no feature check. Each kernel does a
// prefix of its loop and returns how far it got; the Go loop that calls
// it finishes the rest with the same operations in the same order, so
// every element rounds exactly as the scalar loop rounds it.

// adamPairs runs Adam's update on the first len(w)&^1 elements of w, g,
// m and v (all at least len(w) long) and returns that count.
//
//go:noescape
func adamPairs(w, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64) int

// forwardRows8 computes y = W·x + b for the first len(y)&^7 rows, eight
// per pass over x, and returns that count. w holds at least that many
// rows of len(x) weights.
//
//go:noescape
func forwardRows8(w, x, b, y []float64) int

// backwardPairs accumulates grow += g·x and gradIn += g·wrow over the
// first len(x)&^1 columns of every row whose upstream gradient g is
// nonzero, in row order, and returns that column count. w and gw hold
// len(gradOut) rows of len(x); gradIn is at least len(x) long.
//
//go:noescape
func backwardPairs(x, gradOut, w, gw, gradIn []float64) int
