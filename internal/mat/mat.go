// Package mat provides the dense linear-algebra substrate used by the
// streamad models: vectors, row-major dense matrices, basic decompositions
// and least-squares solvers.
//
// The package is deliberately small and allocation-conscious rather than
// general: it implements exactly what the VAR estimator and the neural
// substrate need, on float64, with no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible shapes")

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (len rows*cols, row-major) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the underlying row-major storage (aliased, not copied).
func (m *Dense) Data() []float64 { return m.data }

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul computes a*b into a new matrix.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d)*(%dx%d)", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

// MulVec computes m*x for a column vector x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)*vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// Scale multiplies every element of m by alpha in place.
func (m *Dense) Scale(alpha float64) {
	for i := range m.data {
		m.data[i] *= alpha
	}
}

// Cholesky computes the lower-triangular factor L with m = L*Lᵀ.
// m must be symmetric positive definite.
func Cholesky(m *Dense) (*Dense, error) {
	if m.rows != m.cols {
		return nil, ErrShape
	}
	n := m.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			lrowI, lrowJ := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				sum -= lrowI[k] * lrowJ[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				lrowI[j] = math.Sqrt(sum)
			} else {
				lrowI[j] = sum / lrowJ[j]
			}
		}
	}
	return l, nil
}

// SolveCholesky solves m*x = b given the Cholesky factor L of m.
func SolveCholesky(l *Dense, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, ErrShape
	}
	// Forward substitution: L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution: Lᵀ*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveLSMulti solves min ‖A*X − B‖ column-by-column, returning X with one
// solution column per column of B. It factorizes AᵀA once.
func SolveLSMulti(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows {
		return nil, ErrShape
	}
	at := a.T()
	ata, err := Mul(at, a)
	if err != nil {
		return nil, err
	}
	n := ata.rows
	var trace float64
	for i := 0; i < n; i++ {
		trace += ata.At(i, i)
	}
	ridge := 1e-9 * (trace/float64(n) + 1)
	for i := 0; i < n; i++ {
		ata.Set(i, i, ata.At(i, i)+ridge)
	}
	l, err := Cholesky(ata)
	if err != nil {
		return nil, err
	}
	x := NewDense(a.cols, b.cols)
	col := make([]float64, a.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.At(i, j)
		}
		atb, err := at.MulVec(col)
		if err != nil {
			return nil, err
		}
		sol, err := SolveCholesky(l, atb)
		if err != nil {
			return nil, err
		}
		for i, v := range sol {
			x.Set(i, j, v)
		}
	}
	return x, nil
}
