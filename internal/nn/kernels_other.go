//go:build !amd64

package nn

// Without the amd64 kernels every loop runs in Go from its first element.

func adamPairs(w, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64) int { return 0 }

func forwardRows8(w, x, b, y []float64) int { return 0 }

func backwardPairs(x, gradOut, w, gw, gradIn []float64) int { return 0 }
