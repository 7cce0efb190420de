package eigen_test

import (
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/eigen"
	"roadpart/internal/experiments"
	"roadpart/internal/roadnet"
)

// TestRitzCheckFixtureStops holds every convergence check of the AG
// solves on the small D1 and M1 datasets to the full re-solve, bit for
// bit, and their stopping columns to Lanczos' (eigen.TraceChecks): the
// golden sweep's 14-pair solve (seed 7) and the 22-pair solve a cache
// widened to k=14 runs, both cold.
func TestRitzCheckFixtureStops(t *testing.T) {
	if testing.Short() {
		t.Skip("single-goroutine numerics; runs without -short and in make numerics-check")
	}
	for _, name := range []string{"D1", "M1"} {
		ds, err := experiments.BuildDataset(name, experiments.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		g, err := roadnet.DualGraph(ds.Net)
		if err != nil {
			t.Fatal(err)
		}
		adj, err := core.SimilarityWeighted(g, ds.Net.Densities()).AdjacencyCSR()
		if err != nil {
			t.Fatal(err)
		}
		op, err := cut.NewAlphaCutOp(adj)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{14, 22} {
			stop, checks := eigen.TraceChecks(t, op, k, eigen.LanczosOptions{Seed: 7})
			t.Logf("%s/AG n=%d k=%d: stopped at %d after %d checks", name, op.Dim(), k, stop, checks)
			if checks == 0 {
				t.Errorf("%s k=%d: vacuous, no convergence check ran", name, k)
			}
		}
	}
}
