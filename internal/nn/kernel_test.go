package nn

import (
	"encoding/binary"
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

// refBackwardInto is the one-row-at-a-time scalar backward loop: the
// order every gradient in the repository was accumulated in.
func refBackwardInto(l *Linear, x, gradOut, gradIn []float64) {
	for i := range gradIn {
		gradIn[i] = 0
	}
	for o, g := range gradOut {
		if g == 0 {
			continue
		}
		wrow := l.Weight.W[o*l.In : (o+1)*l.In]
		grow := l.Weight.G[o*l.In : (o+1)*l.In]
		l.Bias.G[o] += g
		for i, xv := range x {
			grow[i] += g * xv
			gradIn[i] += g * wrow[i]
		}
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

// kernelPaths runs f twice: as subtest "go" with hasAVX false, so the Go
// loops do the work the AVX kernels otherwise take, as on a CPU without
// AVX, and as subtest "avx" with the kernels on (skipped without AVX).
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	have := hasAVX
	defer func() { hasAVX = have }()
	hasAVX = false
	t.Run("go", f)
	hasAVX = have
	t.Run("avx", func(t *testing.T) {
		if !have {
			t.Skip("this CPU has no AVX: only the go path ran")
		}
		f(t)
	})
}

// benchPaths runs f as sub-benchmark name on the kernels this CPU runs
// and as name/go with the AVX kernels switched off.
func benchPaths(b *testing.B, name string, f func(b *testing.B)) {
	b.Run(name, f)
	have := hasAVX
	defer func() { hasAVX = have }()
	hasAVX = false
	b.Run(name+"/go", f)
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
// remainder of Out mod 8 and on empty and tiny inputs.
func TestForwardIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range kernelIns {
		for _, out := range kernelOuts {
			l := NewLinear(in, out, rng)
			for i := range l.Bias.W {
				l.Bias.W[i] = rng.NormFloat64()
			}
			x := make([]float64, in)
			for i := range x {
				x[i] = mixedMagnitude(rng)
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

// TestForwardBatchMatchesForwardInto holds the lane rule for the batch
// kernel: on the model-heavy shapes and on odd In and Out, at every
// batch size from 1 to 33 (every remainder of the eight-, four- and
// two-sample blocks, after up to four eight-sample blocks), each (row,
// sample) output must equal the scalar reference on that sample bit for
// bit.
func TestForwardBatchMatchesForwardInto(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		shapes := append([][2]int{{7, 15}, {5, 17}, {13, 23}, {3, 2}, {1, 1}, {0, 3}, {3, 0}}, heavyShapes...)
		for _, sh := range shapes {
			in, out := sh[0], sh[1]
			l := NewLinear(in, out, rng)
			for i := range l.Bias.W {
				l.Bias.W[i] = rng.NormFloat64()
			}
			for batch := 1; batch <= 33; batch++ {
				x, y := make([]float64, in*batch), make([]float64, out*batch)
				for i := range x {
					x[i] = mixedMagnitude(rng)
				}
				for i := range y {
					y[i] = math.NaN() // every output must be written
				}
				l.ForwardBatchInto(x, y, batch)
				if i, ok := sameBits(y, refForwardBatch(l, x, batch)); !ok {
					t.Fatalf("%d→%d, batch %d: output %d of sample %d = %x, scalar reference %x", in, out, batch,
						i/batch, i%batch, math.Float64bits(y[i]), math.Float64bits(refForwardBatch(l, x, batch)[i]))
				}
			}
		}
	})
}

// refForwardBatch runs refForwardInto on each sample of a feature-major
// slab and returns the outputs in the same layout.
func refForwardBatch(l *Linear, x []float64, batch int) []float64 {
	y := make([]float64, l.Out*batch)
	xs, ys := make([]float64, l.In), make([]float64, l.Out)
	for s := 0; s < batch; s++ {
		for i := range xs {
			xs[i] = x[i*batch+s]
		}
		refForwardInto(l, xs, ys)
		for o, v := range ys {
			y[o*batch+s] = v
		}
	}
	return y
}

// kernelIns and kernelOuts are the layer shapes the kernel reference
// tests sweep: empty and tiny layers, every In up to 16 (every remainder
// of In mod 8 below and after one block of 8), and every remainder of
// Out mod 8 below, after one and after two multiples of 8.
var (
	kernelIns  = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 44, 120, 128}
	kernelOuts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 44, 72, 128}
)

// mixedMagnitude is a normal draw scaled by 10^[-6, 6]: sums of such
// values are order-sensitive, so a reordered or split accumulator
// rounds differently.
func mixedMagnitude(rng *rand.Rand) float64 {
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
}

// TestBackwardIntoMatchesScalarReference holds the kernel rule for the
// backward pass: gradIn, the weight and the bias gradients must match
// the one-row scalar loop bit for bit, including the skip of rows whose
// upstream gradient is zero, over the same shape grid as the forward.
func TestBackwardIntoMatchesScalarReference(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, in := range kernelIns {
			for _, out := range kernelOuts {
				got := NewLinear(in, out, rng)
				for i := range got.Weight.G {
					got.Weight.G[i] = mixedMagnitude(rng)
				}
				for i := range got.Bias.G {
					got.Bias.G[i] = mixedMagnitude(rng)
				}
				want := copyLinear(got)
				x := make([]float64, in)
				for i := range x {
					x[i] = mixedMagnitude(rng)
				}
				gradOut := make([]float64, out)
				for i := range gradOut {
					if i%3 != 1 {
						gradOut[i] = mixedMagnitude(rng)
					}
				}
				gotIn, wantIn := make([]float64, in), make([]float64, in)
				for i := range gotIn {
					gotIn[i] = rng.NormFloat64() // stale values BackwardInto must overwrite
				}
				got.BackwardInto(x, gradOut, gotIn)
				refBackwardInto(want, x, gradOut, wantIn)
				pairs := [][2][]float64{
					{gotIn, wantIn}, {got.Weight.G, want.Weight.G}, {got.Bias.G, want.Bias.G},
				}
				for which, pr := range pairs {
					if i, ok := sameBits(pr[0], pr[1]); !ok {
						t.Fatalf("%d→%d: slab %d (gradIn, weight G, bias G)[%d] = %x, scalar reference %x",
							in, out, which, i, math.Float64bits(pr[0][i]), math.Float64bits(pr[1][i]))
					}
				}
			}
		}
	})
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

// TestAdamStepMatchesReference compares 400 steps of the hoisted loop
// with the reference on weights and both moments, bit for bit. From
// step 356 on, bc1 = 1 - 0.9^t rounds to exactly 1.0: the regime a
// long-lived optimizer spends nearly all its steps in.
func TestAdamStepMatchesReference(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
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
		for s := 0; s < 400; s++ {
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
	})
}

// fuzzFloats decodes float64s from fuzz input. Each value is one tag
// byte: below 0x80 it picks an edge value, otherwise the next eight
// bytes are the raw little-endian bits. Exhausted input reads as 0.
type fuzzFloats []byte

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 1e-300, -1e-300, 1, -1,
}

func (f *fuzzFloats) next() float64 {
	b := *f
	if len(b) == 0 {
		return 0
	}
	tag, b := b[0], b[1:]
	if tag < 0x80 {
		*f = b
		return edgeFloats[int(tag)%len(edgeFloats)]
	}
	var raw [8]byte
	n := copy(raw[:], b)
	*f = b[n:]
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (f *fuzzFloats) fill(xs []float64) {
	for i := range xs {
		xs[i] = f.next()
	}
}

// sameOrNaN reports the first index at which two slices differ bit-wise,
// where any NaN matches any NaN: a NaN's payload depends on operand
// order, which IEEE 754 leaves to the implementation.
func sameOrNaN(a, b []float64) (int, bool) {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// FuzzKernelsMatchReference runs ForwardInto, BackwardInto, one
// Adam.Step at step t and a ForwardBatchInto of batch samples on a shape,
// t, batch and values decoded from the input — zeros of both signs,
// subnormals, infinities, NaN and 1e±300 included — and compares every
// output slab with the scalar references bit for bit. The batch is the
// top six bits of the step's high byte, so seeds from before it decode
// to batch 1.
func FuzzKernelsMatchReference(f *testing.F) {
	// Seeds cycle every edge value through every slab at three shapes,
	// two of them past t = 356; a fourth mixes raw bits in.
	for k, sh := range [][3]int{{2, 3, 400}, {6, 9, 40}, {17, 23, 1023}} {
		b := []byte{byte(sh[0]), byte(sh[1]), byte(sh[2]), byte(sh[2] >> 8)}
		for i := 0; i < 1500; i++ {
			b = append(b, byte(i*(2*k+1)%len(edgeFloats)))
		}
		f.Add(b)
	}
	f.Add([]byte{8, 16, 0x2c, 0x01, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 2, 4, 0x80, 1, 2, 3, 4, 5, 6, 7, 0x81})
	// Batches 16, 9 and 3 on shapes whose rows and samples both leave a
	// remainder: over every edge value, and over raw mixed-magnitude
	// values, whose sums a reordered or restarted accumulator rounds
	// differently.
	rng := rand.New(rand.NewSource(3))
	for k, sh := range [][3]int{{5, 17, 16}, {16, 8, 9}, {3, 23, 3}} {
		b := []byte{byte(sh[0]), byte(sh[1]), 7, byte((sh[2] - 1) << 2)}
		raw := append([]byte(nil), b...)
		for i := 0; i < 2500; i++ {
			b = append(b, byte(i*(k+2)%len(edgeFloats)))
			raw = binary.LittleEndian.AppendUint64(append(raw, 0x80), math.Float64bits(mixedMagnitude(rng)))
		}
		f.Add(b)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kernelPaths(t, func(t *testing.T) {
			if len(data) < 4 {
				return
			}
			in, out := int(data[0]%33), int(data[1]%33)
			step := 1 + int(binary.LittleEndian.Uint16(data[2:4]))%1024
			batch := 1 + int(data[3]>>2)%17
			src := fuzzFloats(data[4:])
			check := func(what string, got, want []float64) {
				t.Helper()
				if i, ok := sameOrNaN(got, want); !ok {
					t.Fatalf("%d→%d, t=%d: %s[%d] = %x, reference %x", in, out, step, what, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}

			l := &Linear{In: in, Out: out, Weight: NewParam(in * out), Bias: NewParam(out)}
			src.fill(l.Weight.W)
			src.fill(l.Bias.W)
			src.fill(l.Weight.G)
			src.fill(l.Bias.G)
			x, gradOut := make([]float64, in), make([]float64, out)
			src.fill(x)
			src.fill(gradOut)
			ref := copyLinear(l)

			y, yRef := make([]float64, out), make([]float64, out)
			l.ForwardInto(x, y)
			refForwardInto(ref, x, yRef)
			check("y", y, yRef)

			gradIn, gradInRef := make([]float64, in), make([]float64, in)
			l.BackwardInto(x, gradOut, gradIn)
			refBackwardInto(ref, x, gradOut, gradInRef)
			check("gradIn", gradIn, gradInRef)
			check("weight G", l.Weight.G, ref.Weight.G)
			check("bias G", l.Bias.G, ref.Bias.G)

			lr := src.next()
			p, pRef := l.Weight, ref.Weight
			m, v := make([]float64, len(p.W)), make([]float64, len(p.W))
			src.fill(m)
			src.fill(v)
			a, aRef := NewAdam(lr), NewAdam(lr)
			a.t, aRef.t = step-1, step-1
			a.m[p], a.v[p] = m, v
			aRef.m[pRef], aRef.v[pRef] = append([]float64(nil), m...), append([]float64(nil), v...)
			a.Step([]*Param{p})
			refAdamStep(aRef, []*Param{pRef})
			check("adam W", p.W, pRef.W)
			check("adam G", p.G, pRef.G)
			check("adam m", a.m[p], aRef.m[pRef])
			check("adam v", a.v[p], aRef.v[pRef])

			xb, yb := make([]float64, in*batch), make([]float64, out*batch)
			src.fill(xb)
			l.ForwardBatchInto(xb, yb, batch)
			check(fmt.Sprintf("batch-%d y", batch), yb, refForwardBatch(l, xb, batch))
		})
	})
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
	// batchN is sum for an N-sample slab per layer: one op is N windows,
	// so ns/window compares with sum's ns/op. A scoring batch is at most
	// eight windows (core.MaxBatch); sixteen shows how the kernel scales.
	for _, batch := range []int{8, 16} {
		xbs, ybs := make([][]float64, len(layers)), make([][]float64, len(layers))
		for k, l := range layers {
			xbs[k], ybs[k] = make([]float64, l.In*batch), make([]float64, l.Out*batch)
			for i := range xbs[k] {
				xbs[k][i] = rng.NormFloat64()
			}
		}
		benchPaths(b, fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k, l := range layers {
					l.ForwardBatchInto(xbs[k], ybs[k], batch)
				}
			}
			benchSink += ybs[0][0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/window")
		})
	}
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

// BenchmarkLinearBackward is one BackwardInto through each of USAD's six
// layer shapes (sub-benchmark usad): the per-sample backward of a USAD
// fine-tune. The weight gradients accumulate across iterations, as they
// do over a batch.
func BenchmarkLinearBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := heavyShapes[:6]
	layers := make([]*Linear, len(shapes))
	xs := make([][]float64, len(shapes))
	gOuts := make([][]float64, len(shapes))
	gIns := make([][]float64, len(shapes))
	for k, sh := range shapes {
		layers[k] = NewLinear(sh[0], sh[1], rng)
		xs[k] = make([]float64, sh[0])
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
		gOuts[k] = make([]float64, sh[1])
		for i := range gOuts[k] {
			gOuts[k][i] = rng.NormFloat64() * 1e-2
		}
		gIns[k] = make([]float64, sh[0])
	}
	benchPaths(b, "usad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, l := range layers {
				l.BackwardInto(xs[k], gOuts[k], gIns[k])
			}
		}
		benchSink += gIns[0][0]
	})
}

// copyLinear returns a copy of l, gradients included, for a reference
// loop to run on beside the kernel under test.
func copyLinear(l *Linear) *Linear {
	c := &Linear{In: l.In, Out: l.Out, Weight: NewParam(len(l.Weight.W)), Bias: NewParam(len(l.Bias.W))}
	for _, p := range [][2]*Param{{c.Weight, l.Weight}, {c.Bias, l.Bias}} {
		copy(p[0].W, p[1].W)
		copy(p[0].G, p[1].G)
	}
	return c
}
