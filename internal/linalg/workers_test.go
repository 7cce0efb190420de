package linalg

import "testing"

// mulVecRef is the plain serial reference the kernels must match bit for
// bit at every worker setting.
func mulVecRefCSR(m *CSR, x []float64) []float64 {
	dst := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// bigCSR builds a sparse banded matrix above the parallel cutoff with a
// cheap deterministic value pattern.
func bigCSR(t *testing.T, n int) *CSR {
	t.Helper()
	var entries []entry
	for i := 0; i < n; i++ {
		for off := -2; off <= 2; off++ {
			j := i + off
			if j < 0 || j >= n {
				continue
			}
			entries = append(entries, entry{i, j, float64((i*7+j*13)%101) / 17.0})
		}
	}
	return csrOf(t, n, n, entries)
}

func TestCSRMulVecParallelBitIdentical(t *testing.T) {
	n := csrMulVecCutoff + 500 // force the parallel path
	m := bigCSR(t, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*31)%257)/97.0 - 1
	}
	want := mulVecRefCSR(m, x)

	defer SetWorkers(0)
	for _, w := range []int{0, 1, 2, 8, 33} {
		SetWorkers(w)
		dst := make([]float64, n)
		m.MulVec(dst, x)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("workers=%d: dst[%d] = %v, want %v (must be bit-identical)", w, i, dst[i], want[i])
			}
		}
	}
}

func TestSetWorkersClampsNegative(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(-5)
	if w := mulVecWorkers.Load(); w != 1 {
		t.Fatalf("worker cap = %d after SetWorkers(-5), want 1", w)
	}
	SetWorkers(0)
	if w := mulVecWorkers.Load(); w != 0 {
		t.Fatalf("worker cap = %d after SetWorkers(0), want 0", w)
	}
}
