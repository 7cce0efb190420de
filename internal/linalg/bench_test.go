package linalg

import "testing"

func benchCSR(b *testing.B, n, deg int) *CSR {
	b.Helper()
	var entries []entry
	for i := 0; i < n; i++ {
		for d := 1; d <= deg; d++ {
			entries = sym(entries, i, (i+d)%n, 1)
		}
	}
	return csrOf(b, n, n, entries)
}

func BenchmarkCSRMulVec10k(b *testing.B) {
	m := benchCSR(b, 10000, 4)
	x := make([]float64, 10000)
	dst := make([]float64, 10000)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkCSRBuild10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchCSR(b, 10000, 4)
	}
}

func BenchmarkNorm2(b *testing.B) {
	x := make([]float64, 100000)
	for i := range x {
		x[i] = float64(i%100) - 50
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Norm2(x)
	}
}
