package eigen_test

import (
	"context"
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
// golden sweep's cold 14-pair solve (seed 7), which checks by the last
// row, and a 22-pair solve widened from its Ritz block, which must
// re-solve.
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
		opts := eigen.LanczosOptions{Seed: 7}
		stop, lastRow, full := eigen.TraceChecks(t, op, 14, opts)
		t.Logf("%s/AG n=%d cold: stopped at %d, %d last-row and %d full checks", name, op.Dim(), stop, lastRow, full)
		if lastRow == 0 || full != 0 {
			t.Errorf("%s cold solve: %d last-row and %d full checks, want last-row only", name, lastRow, full)
		}
		dec, err := eigen.Lanczos(context.Background(), op, 14, opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range dec.Values {
			opts.StartBlock = append(opts.StartBlock, dec.Vector(j))
		}
		stop, lastRow, full = eigen.TraceChecks(t, op, 22, opts)
		t.Logf("%s/AG widened: stopped at %d, %d last-row and %d full checks", name, stop, lastRow, full)
		if lastRow != 0 || full == 0 {
			t.Errorf("%s widened solve: %d last-row and %d full checks, want full only", name, lastRow, full)
		}
	}
}
