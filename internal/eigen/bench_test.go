package eigen

import (
	"context"
	"testing"
)

func BenchmarkSymEigen200(b *testing.B) {
	a := randomSym(200, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosRing5k(b *testing.B) {
	// Ring-graph Laplacian: the canonical sparse symmetric operator.
	const n = 5000
	var entries []symEntry
	for i := 0; i < n; i++ {
		entries = append(entries, symEntry{i, i, 2}, symEntry{i, (i + 1) % n, -1})
	}
	m := symCSR(b, n, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lanczos(context.Background(), CSROp{m}, 6, LanczosOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymTridEigen2k(b *testing.B) {
	const n = 2000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := make([]float64, n)
		e := make([]float64, n)
		for j := range d {
			d[j] = float64(j % 11)
			e[j] = 1
		}
		b.StartTimer()
		if err := SymTridEigen(d, e, nil, n); err != nil {
			b.Fatal(err)
		}
	}
}
