package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refForwardInto is the one-accumulator scalar kernel ForwardInto used
// before it blocked across rows: the summation order every score in the
// repository was produced with, kept as the bit-identity reference.
func refForwardInto(l *Linear, x, y []float64) {
	for o := 0; o < l.Out; o++ {
		row := l.Weight.W[o*l.In : (o+1)*l.In]
		s := l.Bias.W[o]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
}

// refAdamStep is Adam.Step before its loop invariants were hoisted.
func refAdamStep(a *Adam, params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.W))
			a.v[p] = v
		}
		for i := range p.W {
			g := p.G[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.W[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
			p.G[i] = 0
		}
	}
}

// sameBits reports the first index at which two slices differ bit-wise.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestForwardIntoMatchesScalarReference holds the kernel rule: blocking
// across output rows must not change one bit of any output, on every
// remainder of Out mod 4 and on empty and tiny inputs.
func TestForwardIntoMatchesScalarReference(t *testing.T) {
	ins := []int{0, 1, 2, 3, 16, 44, 120, 128}
	outs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 44, 72, 128}
	rng := rand.New(rand.NewSource(11))
	for _, in := range ins {
		for _, out := range outs {
			l := NewLinear(in, out, rng)
			for i := range l.Bias.W {
				l.Bias.W[i] = rng.NormFloat64()
			}
			x := make([]float64, in)
			for i := range x {
				// Mixed magnitudes make the sum order-sensitive: a
				// reordered or split accumulator rounds differently.
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
			}
			got, want := make([]float64, out), make([]float64, out)
			l.ForwardInto(x, got)
			refForwardInto(l, x, want)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%d→%d: y[%d] = %x, scalar reference %x", in, out, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// adamGrad is gradient i of step s in the equivalence test: every step
// mixes zeros, subnormals, huge values and sign flips.
func adamGrad(rng *rand.Rand, s, i int) float64 {
	switch (s + i) % 5 {
	case 0:
		return 0
	case 1:
		return math.Copysign(5e-324*float64(1+rng.Intn(1000)), float64(1-2*(s&1)))
	case 2:
		return math.Copysign(1e150*rng.Float64(), float64(1-2*(i&1)))
	case 3:
		return rng.NormFloat64() * float64(1-2*(s&1))
	}
	return rng.NormFloat64() * 1e-3
}

// TestAdamStepMatchesReference compares 300 steps of the hoisted loop
// with the reference on weights and both moments, bit for bit.
func TestAdamStepMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 7, 64, 129}
	build := func() []*Param {
		rng := rand.New(rand.NewSource(5))
		ps := make([]*Param, len(sizes))
		for k, n := range sizes {
			ps[k] = NewParam(n)
			ps[k].XavierInit(8, 8, rng)
		}
		return ps
	}
	got, want := build(), build()
	a, ref := NewAdam(1e-3), NewAdam(1e-3)
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < 300; s++ {
		for k := range got {
			for i := range got[k].G {
				g := adamGrad(rng, s, i)
				got[k].G[i], want[k].G[i] = g, g
			}
		}
		a.Step(got)
		refAdamStep(ref, want)
		for k := range got {
			pairs := [][2][]float64{
				{got[k].W, want[k].W}, {got[k].G, want[k].G},
				{a.m[got[k]], ref.m[want[k]]}, {a.v[got[k]], ref.v[want[k]]},
			}
			for which, pr := range pairs {
				if i, ok := sameBits(pr[0], pr[1]); !ok {
					t.Fatalf("step %d, param %d, slab %d (W,G,m,v): [%d] = %x, reference %x", s, k, which, i,
						math.Float64bits(pr[0][i]), math.Float64bits(pr[1][i]))
				}
			}
		}
	}
}

// heavyShapes are the eleven distinct layer shapes of the benchmark's
// model-heavy workload: USAD's 128→72→44→16→44→72→128 encoder/decoder
// and an N-BEATS block's 120→64→64 stack, 64→16 theta and 16→120/8
// basis layers (w=16, 8 channels).
var heavyShapes = [][2]int{
	{128, 72}, {72, 44}, {44, 16}, {16, 44}, {44, 72}, {72, 128},
	{120, 64}, {64, 64}, {64, 16}, {16, 120}, {16, 8},
}

var benchSink float64

func BenchmarkLinearForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layers := make([]*Linear, len(heavyShapes))
	xs := make([][]float64, len(heavyShapes))
	ys := make([][]float64, len(heavyShapes))
	for k, sh := range heavyShapes {
		layers[k] = NewLinear(sh[0], sh[1], rng)
		xs[k] = make([]float64, sh[0])
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
		ys[k] = make([]float64, sh[1])
	}
	for k, sh := range heavyShapes {
		l, x, y := layers[k], xs[k], ys[k]
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.ForwardInto(x, y)
			}
			benchSink += y[0]
		})
	}
	b.Run("sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, l := range layers {
				l.ForwardInto(xs[k], ys[k])
			}
		}
		benchSink += ys[0][0]
	})
}

// BenchmarkAdamStep is one optimizer step over USAD's encoder and one
// decoder (≈ 27k parameters). Step clears the gradients it consumes, so
// each iteration copies them back in: a memcpy of a few percent of the
// step, cheaper and steadier than stopping the timer.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var params []*Param
	for _, sh := range heavyShapes[:6] {
		params = append(params, NewLinear(sh[0], sh[1], rng).Params()...)
	}
	grads := make([][]float64, len(params))
	for k, p := range params {
		grads[k] = make([]float64, len(p.G))
		for i := range grads[k] {
			grads[k][i] = rng.NormFloat64() * 1e-2
		}
	}
	a := NewAdam(1e-3)
	a.Step(params) // allocates the moments
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range params {
			copy(p.G, grads[k])
		}
		a.Step(params)
	}
}
