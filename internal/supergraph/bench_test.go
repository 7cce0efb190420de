package supergraph

import (
	"context"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/graph"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// benchGraph builds a 10k-node ring with 8 density stripes.
func benchGraph() (*graph.Graph, []float64) {
	const n = 10000
	gb := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		gb.AddEdge(i, (i+1)%n, 1)
	}
	g := gb.Build()
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i/(n/8)) + float64(i%13)/1000
	}
	return g, f
}

func BenchmarkMine10k(b *testing.B) {
	g, f := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineCtx(context.Background(), g, f, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineFixture mines the 2.1k-segment congested city the
// pipeline benchmarks and the daemon benchmark (perfbench) use. Unlike
// Mine10k's well-separated stripes, its heavy-tailed densities make the
// κ-sweep's 1-D k-means runs take many Lloyd iterations, so this is the
// benchmark that shows the mining kernel's cost.
func BenchmarkMineFixture(b *testing.B) {
	net, err := gen.City(gen.CityConfig{TargetIntersections: 1200, TargetSegments: 2100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 6, Seed: 4})
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
	f := net.Densities()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineCtx(context.Background(), g, f, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStabilityProfile(b *testing.B) {
	g, f := benchGraph()
	sg, err := MineCtx(context.Background(), g, f, MineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg.StabilityProfile(f)
	}
}
