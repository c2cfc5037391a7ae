package nn

import "math/rand"

// Linear is a fully connected layer y = W·x + b with W ∈ R^{out×in}.
type Linear struct {
	In, Out int
	Weight  *Param // row-major out×in
	Bias    *Param // out
}

// NewLinear returns a Glorot-initialized fully connected layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(in * out),
		Bias:   NewParam(out),
	}
	l.Weight.XavierInit(in, out, rng)
	return l
}

// Forward computes y = W·x + b and returns y along with the context
// (a copy of x) needed by Backward.
func (l *Linear) Forward(x []float64) (y, ctx []float64) {
	y = make([]float64, l.Out)
	l.ForwardInto(x, y)
	ctx = make([]float64, l.In)
	copy(ctx, x)
	return y, ctx
}

// ForwardInto computes y = W·x + b into the caller-provided y (length
// Out). Unlike Forward it keeps no context: the caller must preserve x
// itself until the matching BackwardInto. y must not alias x.
//
// One accumulator per row is bound by the 4-cycle latency of its add
// chain, so several rows share each pass over x: eight in forwardRows8,
// then four in Go, whose register allocator spills at eight. Each row
// still sums left to right into its own accumulator — blocking across
// rows changes no bit of any output; splitting a row's accumulator would.
func (l *Linear) ForwardInto(x, y []float64) {
	if len(x) != l.In || len(y) != l.Out {
		panic("nn: Linear input dimension mismatch")
	}
	n := len(x)
	// w, b and y advance together, re-sliced rather than indexed by row:
	// fewer live values, so the inner loop's index stays in a register.
	w, b := l.Weight.W[:n*len(y)], l.Bias.W[:len(y)]
	r := forwardRows8(w, x, b, y)
	w, b, y = w[r*n:], b[r:], y[r:]
	for len(y) >= 4 {
		r0, r1, r2, r3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
		s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		w, b, y = w[4*n:], b[4:], y[4:]
	}
	for o := range y {
		row := w[o*n:][:n]
		s := b[o]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
}

// Backward accumulates parameter gradients given the upstream gradient
// gradOut = ∂L/∂y and the context from the matching Forward call, and
// returns ∂L/∂x.
func (l *Linear) Backward(ctx, gradOut []float64) []float64 {
	gradIn := make([]float64, l.In)
	l.BackwardInto(ctx, gradOut, gradIn)
	return gradIn
}

// BackwardInto accumulates parameter gradients and writes ∂L/∂x into the
// caller-provided gradIn (length In, overwritten). x is the input of the
// matching ForwardInto call. gradIn must not alias x or gradOut.
func (l *Linear) BackwardInto(x, gradOut, gradIn []float64) {
	if len(gradOut) != l.Out || len(x) != l.In || len(gradIn) != l.In {
		panic("nn: Linear backward dimension mismatch")
	}
	for i := range gradIn {
		gradIn[i] = 0
	}
	// Columns are independent, so backwardPairs may take the first k of
	// every row before this loop takes the rest: each element still
	// accumulates its rows in order.
	n := len(x)
	w, gw := l.Weight.W[:n*len(gradOut)], l.Weight.G[:n*len(gradOut)]
	k := backwardPairs(x, gradOut, w, gw, gradIn)
	x, gradIn = x[k:], gradIn[k:]
	for o, g := range gradOut {
		if g == 0 {
			continue
		}
		wrow := w[o*n+k : (o+1)*n]
		grow := gw[o*n+k : (o+1)*n]
		l.Bias.G[o] += g
		for i, xv := range x {
			grow[i] += g * xv
			gradIn[i] += g * wrow[i]
		}
	}
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }
