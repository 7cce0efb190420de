package linalg

import (
	"fmt"

	"roadpart/internal/parallel"
)

// Dense is a row-major dense matrix of float64 values.
// The zero value is an empty 0×0 matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r×c matrix.
// It panics if either dimension is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: NewDense negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds an r×c matrix backed by a copy of data laid out in
// row-major order. It panics if len(data) != r*c.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: NewDenseFrom needs %d values, got %d", r*c, len(data)))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns the i-th row as a slice sharing the matrix's storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// MulVec computes dst = m·x. dst and x must not alias.
// It panics on dimension mismatch.
//
// Large matrices compute row-parallel (see SetWorkers); each row's
// accumulation order is unchanged, so the result is bit-identical to the
// serial loop for any worker count. The serial path allocates nothing.
func (m *Dense) MulVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d with x[%d] dst[%d]", m.rows, m.cols, len(x), len(dst)))
	}
	matvecDense.Inc()
	if span := mulVecSpan(m.rows, denseMulVecCutoff); span > 1 {
		parallel.Blocks(m.rows, span, func(lo, hi int) { m.mulVecRange(dst, x, lo, hi) })
		return
	}
	m.mulVecRange(dst, x, 0, m.rows)
}

// mulVecRange computes dst[lo:hi] of the product — the shared kernel of
// the serial and row-parallel paths.
func (m *Dense) mulVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}
