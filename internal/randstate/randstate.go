// Package randstate makes math/rand streams checkpointable without
// changing their sequences. A CountedSource wraps the standard library
// source and counts how many values have been drawn; a checkpoint stores
// just (seed, draws) and a restore re-creates the source and fast-forwards
// it, so the restored stream continues exactly where the saved one
// stopped. Counting at the Source level (not the Rand level) is what makes
// this exact: rejection-sampling helpers like NormFloat64 and Intn consume
// a variable number of source values, but every one of them is counted.
package randstate

import "math/rand"

// CountedSource is a rand.Source64 that counts draws.
type CountedSource struct {
	seed  int64
	src   rand.Source64
	draws uint64
	// far continues the sequence after a Restore too far ahead to replay
	// draw by draw; nil otherwise, and then src is the live generator.
	far *lagFib
}

// NewCountedSource returns a counted source over rand.NewSource(seed).
func NewCountedSource(seed int64) *CountedSource {
	return &CountedSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *CountedSource) Int63() int64 { return int64(c.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (c *CountedSource) Uint64() uint64 {
	c.draws++
	if c.far != nil {
		return c.far.next()
	}
	return c.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count.
func (c *CountedSource) Seed(seed int64) {
	c.seed = seed
	c.draws = 0
	c.far = nil
	c.src.Seed(seed)
}

// Draws returns the number of values drawn since the last (re)seed.
func (c *CountedSource) Draws() uint64 { return c.draws }

// SeedValue returns the seed the source was created or last reseeded with.
func (c *CountedSource) SeedValue() int64 { return c.seed }

// replayLimit is the draw count up to which Restore replays the
// sequence one value at a time (about 2.3 ns each); past it, the jump
// costs a flat ~10 ms whatever the count, so the limit sits where the
// two meet.
const replayLimit = 1 << 22

// Restore reseeds the source and fast-forwards it by draws values. The
// standard library source advances exactly one internal step per Int63 or
// Uint64 call, so replaying by count reproduces the stream position. A
// count past replayLimit is jumped to instead (see lagFib), so a restore
// takes bounded time for any 64-bit count — including one a damaged or
// hostile checkpoint claims.
func (c *CountedSource) Restore(seed int64, draws uint64) {
	c.Seed(seed)
	if draws > replayLimit {
		c.far = jumpAhead(c.src, draws)
	} else {
		for i := uint64(0); i < draws; i++ {
			c.src.Uint64()
		}
	}
	c.draws = draws
}

// The standard library source is an additive lagged Fibonacci generator:
// past its first 607 outputs, out[n] = out[n-607] + out[n-273] mod 2^64
// (Int63 is the same value masked to 63 bits). The sequence is therefore
// a linear recurrence with characteristic polynomial x^607 − x^334 − 1,
// and out[n] for any n is a fixed linear combination of out[0..606] whose
// coefficients are x^n reduced modulo that polynomial — computable with
// ~64 polynomial squarings instead of n draws.
const (
	lagLen = 607
	lagTap = 273
)

// lagFib continues the recurrence from 607 consecutive outputs.
type lagFib struct {
	vec [lagLen]uint64 // the last 607 outputs, oldest at pos
	pos int
}

func (g *lagFib) next() uint64 {
	newer := g.pos + lagLen - lagTap
	if newer >= lagLen {
		newer -= lagLen
	}
	x := g.vec[g.pos] + g.vec[newer]
	g.vec[g.pos] = x
	if g.pos++; g.pos == lagLen {
		g.pos = 0
	}
	return x
}

// lagPoly is a polynomial of degree < 607 over the integers mod 2^64.
type lagPoly [lagLen]uint64

// timesX multiplies p by x modulo x^607 − x^334 − 1.
func (p *lagPoly) timesX() {
	top := p[lagLen-1]
	copy(p[1:], p[:lagLen-1])
	p[0] = top
	p[lagLen-lagTap] += top
}

// square squares p modulo x^607 − x^334 − 1.
func (p *lagPoly) square() {
	var prod [2*lagLen - 1]uint64
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range p {
			prod[i+j] += a * b
		}
	}
	for k := len(prod) - 1; k >= lagLen; k-- {
		prod[k-lagTap] += prod[k]
		prod[k-lagLen] += prod[k]
	}
	copy(p[:], prod[:lagLen])
}

// jumpAhead returns a generator whose next output is out[n] of the
// freshly seeded src (n ≥ 607), consuming src's first 607 outputs.
func jumpAhead(src rand.Source64, n uint64) *lagFib {
	var first [lagLen]uint64
	for i := range first {
		first[i] = src.Uint64()
	}
	// The generator's register is out[n-607..n-1]. coef = x^(n-607) mod
	// the characteristic polynomial, by square-and-multiply from the top
	// bit; then out[n-607+j] = Σ_i (coef·x^j)[i] · out[i].
	n -= lagLen
	var coef lagPoly
	coef[0] = 1
	for bit := 63; bit >= 0; bit-- {
		coef.square()
		if n>>uint(bit)&1 == 1 {
			coef.timesX()
		}
	}
	g := new(lagFib)
	for j := range g.vec {
		var v uint64
		for i, c := range coef {
			v += c * first[i]
		}
		g.vec[j] = v
		coef.timesX()
	}
	return g
}
