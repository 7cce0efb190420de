package eigen

import (
	"math"
	"testing"
)

// FuzzSymTridEigen asserts the tridiagonal solver never panics, always
// returns sorted eigenvalues, and conserves the trace for arbitrary
// (finite) tridiagonal input.
func FuzzSymTridEigen(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 2
		if n < 1 || n > 40 {
			return
		}
		d := make([]float64, n)
		e := make([]float64, n)
		var trace float64
		for i := 0; i < n; i++ {
			d[i] = float64(int(raw[i])-128) / 8
			trace += d[i]
			if i+n < len(raw) {
				e[i] = float64(int(raw[i+n])-128) / 8
			}
		}
		if err := SymTridEigen(d, e, nil, n, 0); err != nil {
			return // non-convergence reported, not panicked
		}
		var sum float64
		for i := 0; i < n; i++ {
			if math.IsNaN(d[i]) {
				t.Fatalf("NaN eigenvalue at %d", i)
			}
			if i > 0 && d[i] < d[i-1]-1e-9 {
				t.Fatalf("eigenvalues not sorted: %v", d)
			}
			sum += d[i]
		}
		if math.Abs(sum-trace) > 1e-6*(1+math.Abs(trace)) {
			t.Fatalf("trace not conserved: %v vs %v", sum, trace)
		}
	})
}
