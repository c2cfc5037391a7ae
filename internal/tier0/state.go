package tier0

import "streamad/internal/wire"

// Each detector's checkpoint leads with a version and the configuration
// fingerprint, then carries the full mutable state. The walk refuses a
// fingerprint that differs from the receiver's before touching any state,
// so a snapshot from a differently-configured detector is rejected
// cleanly — the same contract as the heavy pipelines' Save/Load.

const snapshotVersion = 2

// Walk implements wire.Walker.
func (d *EWMA) Walk(w *wire.Walk) {
	w.Expect("tier0: ewma (version, N, warmup)", snapshotVersion, len(d.mean), d.warmup)
	w.ExpectFloat64("tier0: ewma alpha", d.alpha)
	w.Int(&d.steps)
	w.Float64s(d.mean)
	w.Float64s(d.vari)
	for i := range d.cnt {
		w.Int(&d.cnt[i])
	}
}

// AppendBinary implements core.Node.
func (d *EWMA) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, d) }

// Save implements core.Node.
func (d *EWMA) Save() ([]byte, error) { return wire.Append(nil, d) }

// Load implements core.Node.
func (d *EWMA) Load(data []byte) error { return wire.Decode(data, d) }

// Walk implements wire.Walker.
func (d *ZScore) Walk(w *wire.Walk) {
	w.Expect("tier0: zscore (version, N, w)", snapshotVersion, len(d.rings), d.w)
	w.Int(&d.steps)
	w.Float64s(d.sum)
	w.Float64s(d.sumsq)
	for _, r := range d.rings {
		w.Section(r.Walk)
	}
}

// AppendBinary implements core.Node.
func (d *ZScore) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, d) }

// Save implements core.Node.
func (d *ZScore) Save() ([]byte, error) { return wire.Append(nil, d) }

// Load implements core.Node.
func (d *ZScore) Load(data []byte) error { return wire.Decode(data, d) }

// Walk implements wire.Walker. The sorted views are derived state,
// rebuilt from each restored ring.
func (d *Hampel) Walk(w *wire.Walk) {
	w.Expect("tier0: hampel (version, N, w)", snapshotVersion, len(d.rings), d.w)
	w.Int(&d.steps)
	for i, r := range d.rings {
		w.Section(r.Walk)
		if !w.Decoding() {
			continue
		}
		n, srt := r.Len(), d.sorted[i]
		for j := 0; j < n; j++ {
			x := r.At(j)
			pos := searchFloat(srt, j, x)
			copy(srt[pos+1:j+1], srt[pos:j])
			srt[pos] = x
		}
		d.ns[i] = n
	}
}

// AppendBinary implements core.Node.
func (d *Hampel) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, d) }

// Save implements core.Node.
func (d *Hampel) Save() ([]byte, error) { return wire.Append(nil, d) }

// Load implements core.Node.
func (d *Hampel) Load(data []byte) error { return wire.Decode(data, d) }

// Walk implements wire.Walker, including the RNG position so restored
// sampling continues the exact draw sequence.
func (d *Density) Walk(w *wire.Walk) {
	w.Expect("tier0: density (version, window, N, k)", snapshotVersion, d.win.Cap(), d.win.Dim(), d.k)
	w.ExpectFloat64("tier0: density alpha", d.alpha)
	w.Float64(&d.scale)
	w.Int(&d.steps)
	seed, draws := d.src.SeedValue(), d.src.Draws()
	w.Int64(&seed)
	w.Uint64(&draws)
	w.Section(d.win.Walk)
	if w.Decoding() {
		d.src.Restore(seed, draws)
	}
}

// AppendBinary implements core.Node.
func (d *Density) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, d) }

// Save implements core.Node.
func (d *Density) Save() ([]byte, error) { return wire.Append(nil, d) }

// Load implements core.Node.
func (d *Density) Load(data []byte) error { return wire.Decode(data, d) }
