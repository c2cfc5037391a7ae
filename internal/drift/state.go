package drift

import (
	"math"

	"streamad/internal/wire"
)

func (o *OpCounts) walk(w *wire.Walk) {
	w.Int64(&o.Adds)
	w.Int64(&o.Mults)
	w.Int64(&o.Cmps)
}

// Walk implements wire.Walker; the receiver's interval must match the
// snapshot.
func (r *Regular) Walk(w *wire.Walk) {
	w.Expect("drift: regular interval", r.Interval)
	w.Int(&r.steps)
	r.ops.walk(w)
}

// Walk implements wire.Walker, including the Welford accumulator over all
// training-set elements; the receiver's dimension must match the
// snapshot.
func (d *MuSigmaChange) Walk(w *wire.Walk) {
	n, mean, m2 := d.elems.State()
	w.Float64s(d.mean)
	w.Float64s(d.refMean)
	w.Float64(&d.refStd)
	w.Bool(&d.hasRef)
	w.Int(&n)
	w.Float64(&mean)
	w.Float64(&m2)
	if w.Decoding() {
		d.elems.SetState(n, mean, m2)
	}
	d.ops.walk(w)
}

// Walk implements wire.Walker: the sorted per-channel reference samples
// plus the test throttle position. The receiver's geometry (channels,
// window) must match the snapshot.
func (k *KSWIN) Walk(w *wire.Walk) {
	w.Expect("drift: kswin (N, w)", k.channels, k.repWin)
	w.Float64(&k.alpha)
	w.Int(&k.CheckEvery)
	w.Int(&k.steps)
	w.Bool(&k.correct)
	k.ops.walk(w)
	w.Bool(&k.hasRef)
	if !k.hasRef {
		if w.Decoding() {
			k.ref = nil
		}
		return
	}
	per := 0
	if len(k.ref) > 0 {
		per = len(k.ref[0])
	}
	per = w.Count(per, math.MaxInt/k.channels)
	if w.Decoding() && (len(k.ref) != k.channels || len(k.ref[0]) != per) {
		slab := make([]float64, k.channels*per)
		k.ref = make([][]float64, k.channels)
		for c := range k.ref {
			k.ref[c] = slab[c*per : (c+1)*per : (c+1)*per]
		}
	}
	for _, ch := range k.ref {
		w.RawFloat64s(ch)
	}
}

// Walk implements wire.Walker; the receiver's confidence parameter must
// match the snapshot.
func (a *ADWIN) Walk(w *wire.Walk) {
	w.ExpectFloat64("drift: adwin delta", a.Delta)
	w.Int(&a.MaxWindow)
	w.Int(&a.MinSplit)
	a.ops.walk(w)
	n := w.Count(len(a.window), max(a.MaxWindow, 0))
	if w.Decoding() {
		if cap(a.window) < n {
			a.window = make([]float64, n)
		}
		a.window = a.window[:n]
	}
	w.RawFloat64s(a.window)
}
