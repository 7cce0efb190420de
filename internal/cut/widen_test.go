package cut_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/experiments"
	"roadpart/internal/roadnet"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSpectralWideningMatchesFresh pins a widened cache to a fresh solve
// (docs/NUMERICS.md § Headroom): on the small M1 dataset's AG graph
// (seed 7), a Spectral that serves k=2 and then k=12 outgrows its
// 10-pair decomposition, and the 20-pair decomposition it solves must
// be bit for bit the one a fresh Spectral solves for k=12, with the same
// partition.
func TestSpectralWideningMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("M1-small eigensolves; runs without -short and in make numerics-check")
	}
	ds, err := experiments.BuildDataset("M1", experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.DualGraph(ds.Net)
	if err != nil {
		t.Fatal(err)
	}
	sim := core.SimilarityWeighted(g, ds.Net.Densities())
	ctx := context.Background()
	opts := cut.Options{Seed: 7}

	widened := cut.NewSpectral(sim, cut.MethodAlphaCut, opts)
	if _, err := widened.PartitionCtx(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(widened.Decomposition().Values); n >= 12 {
		t.Fatalf("vacuous: the k=2 solve cached %d pairs, enough for k=12", n)
	}
	got, err := widened.PartitionCtx(ctx, 12)
	if err != nil {
		t.Fatal(err)
	}
	fresh := cut.NewSpectral(sim, cut.MethodAlphaCut, opts)
	want, err := fresh.PartitionCtx(ctx, 12)
	if err != nil {
		t.Fatal(err)
	}

	gd, wd := widened.Decomposition(), fresh.Decomposition()
	if !sameBits(gd.Values, wd.Values) {
		t.Errorf("widened values %v, fresh %v", gd.Values, wd.Values)
	}
	if !sameBits(gd.Vectors, wd.Vectors) {
		t.Error("widened eigenvectors differ from the fresh solve's")
	}
	if math.Float64bits(gd.Residual) != math.Float64bits(wd.Residual) {
		t.Errorf("widened residual %v, fresh %v", gd.Residual, wd.Residual)
	}
	if got.K != want.K || !slices.Equal(got.Assign, want.Assign) {
		t.Errorf("widened partition (K=%d) differs from the fresh one (K=%d)", got.K, want.K)
	}
}
