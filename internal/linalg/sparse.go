package linalg

import (
	"fmt"
	"sort"

	"roadpart/internal/obs"
)

// matvecCSR tallies one increment per MulVec call (not per row), so the
// cost is a single atomic add against O(nnz) kernel work. The count is
// deterministic for a given workload — the Lanczos iteration count per
// eigensolve is seed-fixed.
var matvecCSR = obs.Default().Counter("roadpart_linalg_matvec_total",
	"Matrix-vector products computed, by matrix kind.", "kind", "csr")

// CSR is a compressed-sparse-row matrix. It is immutable after
// construction; build one with NewCSR.
type CSR struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz, strictly increasing within each row
	vals       []float64 // len nnz, no zeros
}

// NewCSR returns the rows×cols matrix held in compressed rows: row i
// stores the values vals[k] at columns colIdx[k] for k in
// [rowPtr[i], rowPtr[i+1]), columns strictly increasing within a row.
// Explicit zeros are dropped. NewCSR takes ownership of the three slices
// and compacts them in place. It returns an error for a negative
// dimension, malformed row pointers, or a column out of range or order.
func NewCSR(rows, cols int, rowPtr, colIdx []int, vals []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: NewCSR negative dimension %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) || len(colIdx) != len(vals) {
		return nil, fmt.Errorf("linalg: NewCSR with %d row pointers, %d columns and %d values for %d rows",
			len(rowPtr), len(colIdx), len(vals), rows)
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("linalg: NewCSR row %d ends before it starts", i)
		}
	}
	w, lo := 0, 0
	for i := 0; i < rows; i++ {
		hi, prev := rowPtr[i+1], -1
		for k := lo; k < hi; k++ {
			j := colIdx[k]
			if j <= prev || j >= cols {
				return nil, fmt.Errorf("linalg: NewCSR row %d has column %d out of range or order", i, j)
			}
			if vals[k] != 0 {
				colIdx[w], vals[w] = j, vals[k]
				w++
			}
			prev = j
		}
		rowPtr[i+1], lo = w, hi
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx[:w], vals: vals[:w]}, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// At returns the element at row i, column j using binary search within the
// row; absent entries are zero.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// MulVec computes dst = m·x. dst and x must not alias.
// It panics on dimension mismatch.
//
// It runs on the calling goroutine at every size and worker count and
// allocates nothing — it is one of the pinned allocation-free
// kernels of docs/PERFORMANCE.md.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d with x[%d] dst[%d]", m.rows, m.cols, len(x), len(dst)))
	}
	matvecCSR.Inc()
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += float64(m.vals[k] * x[m.colIdx[k]])
		}
		dst[i] = s
	}
}

// RowSums returns the vector of row sums (the weighted degree vector when
// the matrix is a graph adjacency matrix).
func (m *CSR) RowSums() []float64 {
	d := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k]
		}
		d[i] = s
	}
	return d
}
