package varmodel

import (
	"fmt"

	"streamad/internal/mat"
	"streamad/internal/wire"
)

// Walk implements wire.Walker; the coefficient matrix follows only once
// the model is fitted. The receiver's order and channel count must match
// the snapshot.
func (m *Model) Walk(w *wire.Walk) {
	w.Expect("varmodel: (p, N)", m.p, m.channels)
	w.Bool(&m.fitted)
	if !m.fitted {
		if w.Decoding() {
			m.coef = nil
		}
		return
	}
	rows, cols := 0, 0
	if w.Encoding() {
		rows, cols = m.coef.Rows(), m.coef.Cols()
	}
	rows, cols = w.Count(rows, w.Left()), w.Count(cols, w.Left())
	if w.Decoding() {
		if rows*cols > w.Left()/8 {
			w.Fail(fmt.Errorf("varmodel: snapshot coefficient shape %d×%d exceeds its %d bytes", rows, cols, w.Left()))
			return
		}
		m.coef = mat.NewDenseData(rows, cols, make([]float64, rows*cols))
	}
	if w.Err() == nil {
		w.RawFloat64s(m.coef.Data())
	}
}
