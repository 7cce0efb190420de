package eigen

import (
	"cmp"
	"slices"
	"testing"

	"roadpart/internal/linalg"
)

// denseOp is a row-major dense symmetric test matrix; it is an Op.
type denseOp struct {
	n    int
	data []float64
}

// newDenseOp returns the zero n×n matrix.
func newDenseOp(n int) *denseOp { return &denseOp{n: n, data: make([]float64, n*n)} }

// denseOpFrom returns the n×n matrix over a row-major copy of data.
func denseOpFrom(n int, data []float64) *denseOp {
	m := newDenseOp(n)
	copy(m.data, data)
	return m
}

// Dim returns the order of the matrix.
func (m *denseOp) Dim() int { return m.n }

// At returns the element at row i, column j.
func (m *denseOp) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set stores v at row i, column j.
func (m *denseOp) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Apply computes dst = M·x row by row.
func (m *denseOp) Apply(dst, x []float64) {
	for i := range dst {
		var s float64
		for j, v := range m.data[i*m.n : (i+1)*m.n] {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// CSROp adapts a sparse symmetric matrix to the Op interface.
type CSROp struct{ M *linalg.CSR }

// Dim returns the order of the wrapped matrix.
func (o CSROp) Dim() int { return o.M.Rows() }

// Apply computes dst = M·x.
func (o CSROp) Apply(dst, x []float64) { o.M.MulVec(dst, x) }

// symCSR assembles the symmetric n×n matrix with value v at (i, j) and
// (j, i) for every {i, j, v} in entries (the diagonal once), summing
// entries that share a coordinate, through linalg.NewCSR.
func symCSR(tb testing.TB, n int, entries []symEntry) *linalg.CSR {
	tb.Helper()
	var all []symEntry
	for _, e := range entries {
		all = append(all, e)
		if e.i != e.j {
			all = append(all, symEntry{e.j, e.i, e.v})
		}
	}
	slices.SortStableFunc(all, func(a, b symEntry) int {
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
	})
	rowPtr := make([]int, n+1)
	var colIdx []int
	var vals []float64
	for k, e := range all {
		if k > 0 && e.i == all[k-1].i && e.j == all[k-1].j {
			vals[len(vals)-1] += e.v
			continue
		}
		colIdx, vals = append(colIdx, e.j), append(vals, e.v)
		rowPtr[e.i+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	m, err := linalg.NewCSR(n, n, rowPtr, colIdx, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// symEntry is one mirrored input to symCSR.
type symEntry struct {
	i, j int
	v    float64
}
