package knn

import "streamad/internal/wire"

// Walk implements wire.Walker: the reference group, row by row, and its
// normalization scale. The receiver's K and Dim must match the snapshot.
// Decoding replaces the reference group with fresh storage rather than
// writing it in place.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("knn: (k, dim)", m.k, m.dim)
	w.Float64(&m.scale)
	n := w.Count(len(m.ref), w.Left()/(8*m.dim))
	if w.Decoding() {
		m.ref = nil
		if n > 0 {
			slab := make([]float64, n*m.dim)
			m.ref = make([][]float64, n)
			for i := range m.ref {
				m.ref[i] = slab[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
			}
		}
	}
	for _, r := range m.ref[:n] {
		w.RawFloat64s(r)
	}
}
