package varmodel

import (
	"fmt"

	"streamad/internal/mat"
	"streamad/internal/wire"
)

// AppendBinary implements wire.Appender; the coefficient matrix follows
// only once the model is fitted.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, m.p)
	dst = wire.AppendInt(dst, m.channels)
	dst = wire.AppendBool(dst, m.fitted)
	if m.fitted {
		dst = wire.AppendInt(dst, m.coef.Rows())
		dst = wire.AppendInt(dst, m.coef.Cols())
		dst = wire.AppendRawFloat64s(dst, m.coef.Data())
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// order and channel count must match the snapshot.
func (m *Model) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if p, n := rd.Int(), rd.Int(); rd.Err() == nil && (p != m.p || n != m.channels) {
		return fmt.Errorf("varmodel: snapshot (p=%d N=%d) does not match model (p=%d N=%d)", p, n, m.p, m.channels)
	}
	if !rd.Bool() {
		if err := rd.Done(); err != nil {
			return err
		}
		m.fitted, m.coef = false, nil
		return nil
	}
	rows, cols := rd.Count(len(data)), rd.Count(len(data))
	if rd.Err() == nil && rows*cols > len(data)/8 {
		return fmt.Errorf("varmodel: snapshot coefficient shape %d×%d exceeds its %d bytes", rows, cols, len(data))
	}
	coef := make([]float64, rows*cols)
	rd.RawFloat64s(coef)
	if err := rd.Done(); err != nil {
		return err
	}
	m.coef, m.fitted = mat.NewDenseData(rows, cols, coef), true
	return nil
}
