package linalg

import (
	"fmt"
	"sort"

	"roadpart/internal/parallel"
)

// Coord is a single (row, column, value) triplet used to assemble sparse
// matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. It is immutable after construction;
// build one with NewCSR or through a Builder.
type CSR struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz, sorted within each row
	vals       []float64 // len nnz
}

// NewCSR assembles a CSR matrix from triplets. Duplicate (row, col) entries
// are summed, which makes assembling graph adjacency matrices from edge
// lists convenient. It returns an error if any coordinate is out of range.
func NewCSR(rows, cols int, entries []Coord) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: NewCSR negative dimension %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})

	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, sorted[i].Col)
			m.vals = append(m.vals, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m, nil
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

// Range calls fn for every stored entry of row i, in column order.
func (m *CSR) Range(i int, fn func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.vals[k])
	}
}

// MulVec computes dst = m·x. dst and x must not alias.
// It panics on dimension mismatch.
//
// Large matrices compute row-parallel (see SetWorkers); each row's
// accumulation order is unchanged, so the result is bit-identical to the
// serial loop for any worker count. The serial path (small matrices, or
// Workers=1) allocates nothing — it is one of the pinned
// allocation-free kernels of docs/PERFORMANCE.md.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d with x[%d] dst[%d]", m.rows, m.cols, len(x), len(dst)))
	}
	matvecCSR.Inc()
	if span := mulVecSpan(m.rows, csrMulVecCutoff); span > 1 {
		parallel.Blocks(m.rows, span, func(lo, hi int) { m.mulVecRange(dst, x, lo, hi) })
		return
	}
	m.mulVecRange(dst, x, 0, m.rows)
}

// mulVecRange computes dst[lo:hi] of the product — the shared kernel of
// the serial and row-parallel paths.
func (m *CSR) mulVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
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

// Dense expands m into a dense matrix. Intended for small matrices and tests.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

// Builder accumulates triplets and assembles a CSR matrix. It exists so
// call sites can stream entries without managing a slice of Coord by hand.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a Builder for an r×c matrix.
func NewBuilder(r, c int) *Builder {
	return &Builder{rows: r, cols: c}
}

// Add records value v at (i, j). Duplicates are summed at Build time.
func (b *Builder) Add(i, j int, v float64) {
	b.entries = append(b.entries, Coord{Row: i, Col: j, Val: v})
}

// AddSym records v at both (i, j) and (j, i); the diagonal is recorded once.
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// Build assembles the matrix.
func (b *Builder) Build() (*CSR, error) {
	return NewCSR(b.rows, b.cols, b.entries)
}
