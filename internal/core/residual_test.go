package core_test

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/eigen"
	"roadpart/internal/experiments"
	"roadpart/internal/roadnet"
)

// negOp is −A, whose smallest eigenvalue is −λ_max(A).
type negOp struct{ eigen.Op }

func (o negOp) Apply(dst, x []float64) {
	o.Op.Apply(dst, x)
	for i := range dst {
		dst[i] = -dst[i]
	}
}

// TestLanczosResidualMatchesExplicit checks eigen.Decomposition.Residual,
// which Lanczos derives from its Rayleigh matrix, against explicit
// residuals ‖A·y − θ·y‖ of the returned pairs on the AG operators of the
// small D1 and M1 datasets, solved as the golden sweep SweepK(2,6) solves
// them (14 pairs, seed 7). The explicit side scales by max(|λ_min|,
// |λ_max|), with λ_max from a second solve; the extreme Ritz values of
// the first solve converge to those long before its inner pairs do.
func TestLanczosResidualMatchesExplicit(t *testing.T) {
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
		dec, err := eigen.Lanczos(context.Background(), op, 14, eigen.LanczosOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		top, err := eigen.Lanczos(context.Background(), negOp{op}, 1, eigen.LanczosOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		scale := math.Max(math.Abs(dec.Values[0]), math.Abs(top.Values[0]))
		var explicit float64
		for j, v := range dec.Values {
			explicit = math.Max(explicit, eigen.Residual(op, v, dec.Vector(j))/scale)
		}
		t.Logf("%s/AG n=%d: Residual %.3g, explicit %.3g", name, dec.N, dec.Residual, explicit)
		if !(dec.Residual > 0) || math.Abs(dec.Residual-explicit) > 1e-6*explicit+1e-13 {
			t.Errorf("%s/AG: Residual %.6g, explicit residual %.6g", name, dec.Residual, explicit)
		}
	}
}
