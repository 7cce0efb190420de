package kmeans_test

import (
	"context"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/eigen"
	"roadpart/internal/gen"
	"roadpart/internal/kmeans"
	"roadpart/internal/linalg"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// BenchmarkNDEmbedding clusters the embedding BenchmarkScale/tier=M
// clusters: the 8 smallest α-Cut eigenvectors of the M-tier city under
// the AG scheme (16 pairs solved, seed 7, as the cut solves them),
// row-normalized, k = 8 with five restarts. Restarts run on one worker
// so ns/op is the k-means CPU time. Building the embedding (~1 s) is
// setup, outside the timer.
func BenchmarkNDEmbedding(b *testing.B) {
	net, err := gen.ScaleTier(gen.TierM, 1)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 5, Seed: 7919})
	if err != nil {
		b.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		b.Fatal(err)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		b.Fatal(err)
	}
	adj, err := core.SimilarityWeighted(g, net.Densities()).AdjacencyCSR()
	if err != nil {
		b.Fatal(err)
	}
	op, err := cut.NewAlphaCutOp(adj)
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	dec, err := eigen.Lanczos(context.Background(), op, k+8, eigen.LanczosOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cols := len(dec.Values)
	rows := make([][]float64, dec.N)
	for i := range rows {
		rows[i] = append([]float64(nil), dec.Vectors[i*cols:i*cols+k]...)
		linalg.Normalize(rows[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := kmeans.ND(rows, k, kmeans.NDOptions{Seed: 7, Restarts: 5, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iters")
}
