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

// BenchmarkLanczosCold is the stream's solve shape: a cold 12-pair solve
// of a 128-node operator (a weighted 16×8 grid Laplacian), small enough
// that the periodic convergence checks, not the matvecs, dominate.
func BenchmarkLanczosCold(b *testing.B) {
	op := gridLaplacian(b, 16, 8)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Lanczos(context.Background(), op, 12, LanczosOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// gridLaplacian returns the Laplacian of a weighted w×h grid graph.
func gridLaplacian(tb testing.TB, w, h int) CSROp {
	var entries []symEntry
	deg := make([]float64, w*h)
	for i := range deg {
		for _, j := range []int{i + 1, i + w} {
			if (j == i+1 && j%w == 0) || j >= w*h {
				continue
			}
			wt := 1 + float64((i*7+j)%5)
			entries = append(entries, symEntry{i, j, -wt})
			deg[i] += wt
			deg[j] += wt
		}
	}
	for i, d := range deg {
		entries = append(entries, symEntry{i, i, d})
	}
	return CSROp{symCSR(tb, w*h, entries)}
}

// BenchmarkLanczosScale is the perfbench scale solve's shape: 16 pairs
// (k=8 plus headroom) of a 25,600-node operator, a weighted 160×160 grid
// Laplacian whose clustered low spectrum fills the 94-column basis, as
// the M-tier α-Cut operator does. workers=1 is the serial solve;
// workers=GOMAXPROCS splits the reorthogonalization and the Ritz-vector
// assembly over the spans of the solve's linalg.Team.
func BenchmarkLanczosScale(b *testing.B) {
	op := gridLaplacian(b, 160, 160)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Lanczos(context.Background(), op, 16, LanczosOptions{Seed: 1, Workers: tc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
		if err := SymTridEigen(d, e, nil, n, 0); err != nil {
			b.Fatal(err)
		}
	}
}
