package linalg

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// entry is one (row, column, value) input to csrOf.
type entry struct {
	i, j int
	v    float64
}

// csrOf assembles a rows×cols matrix from entries in any order through
// NewCSR, summing entries that share a coordinate.
func csrOf(tb testing.TB, rows, cols int, entries []entry) *CSR {
	tb.Helper()
	entries = slices.Clone(entries)
	slices.SortStableFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
	})
	rowPtr := make([]int, rows+1)
	var colIdx []int
	var vals []float64
	for k, e := range entries {
		if k > 0 && e.i == entries[k-1].i && e.j == entries[k-1].j {
			vals[len(vals)-1] += e.v
			continue
		}
		colIdx, vals = append(colIdx, e.j), append(vals, e.v)
		rowPtr[e.i+1]++
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	m, err := NewCSR(rows, cols, rowPtr, colIdx, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// sym appends v at (i, j) and at (j, i), the diagonal once.
func sym(entries []entry, i, j int, v float64) []entry {
	entries = append(entries, entry{i, j, v})
	if i != j {
		entries = append(entries, entry{j, i, v})
	}
	return entries
}

func TestCSRAssembly(t *testing.T) {
	m, err := NewCSR(3, 3, []int{0, 2, 4, 5}, []int{1, 2, 0, 2, 1}, []float64{3, 4, 2, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.vals) != 5 {
		t.Fatalf("stored entries = %d, want 5", len(m.vals))
	}
	if m.At(0, 1) != 3 || m.At(0, 2) != 4 || m.At(1, 0) != 2 || m.At(2, 1) != 5 {
		t.Fatal("stored entries read back wrong")
	}
	if m.At(0, 0) != 0 || m.At(2, 2) != 0 {
		t.Fatal("absent entries should be zero")
	}
	if want := []int{0, 2, 4, 5}; !slices.Equal(m.rowPtr, want) {
		t.Fatalf("rowPtr = %v, want %v", m.rowPtr, want)
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0, 1, 1}, []int{2}, []float64{1}); err == nil {
		t.Fatal("expected error for out-of-range column")
	}
	if _, err := NewCSR(-1, 2, nil, nil, nil); err == nil {
		t.Fatal("expected error for negative dimension")
	}
	if _, err := NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}); err == nil {
		t.Fatal("expected error for a missing row pointer")
	}
	if _, err := NewCSR(2, 2, []int{0, 2, 1}, []int{0}, []float64{1}); err == nil {
		t.Fatal("expected error for decreasing row pointers")
	}
	if _, err := NewCSR(1, 2, []int{0, 1}, []int{0}, nil); err == nil {
		t.Fatal("expected error for mismatched value count")
	}
	if _, err := NewCSR(1, 2, []int{0, 2}, []int{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("expected error for columns out of order")
	}
	if _, err := NewCSR(1, 2, []int{0, 2}, []int{1, 1}, []float64{1, 1}); err == nil {
		t.Fatal("expected error for a repeated column")
	}
}

func TestCSRDropsExplicitZeroSums(t *testing.T) {
	// Row 0 carries an explicit zero (a sum that cancelled upstream)
	// between two stored entries; row 1 is all zeros.
	m, err := NewCSR(2, 3, []int{0, 3, 5}, []int{0, 1, 2, 0, 2}, []float64{1, 0, 2, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.vals) != 2 || m.At(0, 0) != 1 || m.At(0, 2) != 2 {
		t.Fatalf("stored %v at columns %v, want [1 2] at [0 2]", m.vals, m.colIdx)
	}
	if want := []int{0, 2, 2}; !slices.Equal(m.rowPtr, want) {
		t.Fatalf("rowPtr = %v, want %v", m.rowPtr, want)
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	f := func(raw []float64) bool {
		const n = 7
		var entries []entry
		for i, v := range raw {
			if i >= n*n {
				break
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if math.Abs(v) > 0.5 { // sparsify
				entries = append(entries, entry{i / n, i % n, math.Mod(v, 100)})
			}
		}
		m := csrOf(t, n, n, entries)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i) - 3
		}
		var dense [n][n]float64
		for _, e := range entries {
			dense[e.i][e.j] = e.v
		}
		got := make([]float64, n)
		want := make([]float64, n)
		m.MulVec(got, x)
		for i, row := range dense {
			for j, v := range row {
				want[i] += v * x[j]
			}
		}
		for i := range got {
			if !almostEq(got[i], want[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRRowSums(t *testing.T) {
	m := csrOf(t, 2, 3, []entry{{0, 0, 1}, {0, 2, 2}, {1, 1, -4}})
	d := m.RowSums()
	if d[0] != 3 || d[1] != -4 {
		t.Fatalf("RowSums = %v, want [3 -4]", d)
	}
}
