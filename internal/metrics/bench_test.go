package metrics

import (
	"testing"

	"roadpart/internal/graph"
)

// benchFixture builds a 20k-node ring with striped features and labels.
func benchFixture() (*graph.Graph, []float64, []int) {
	const n = 20000
	gb := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		gb.AddEdge(i, (i+1)%n, 1)
	}
	g := gb.Build()
	f := make([]float64, n)
	assign := make([]int, n)
	for i := range f {
		assign[i] = i / (n / 8)
		if assign[i] > 7 {
			assign[i] = 7
		}
		f[i] = float64(assign[i]) + float64(i%17)/100
	}
	return g, f, assign
}

func BenchmarkEvaluate20k(b *testing.B) {
	g, f, assign := benchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(f, assign, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkARI20k(b *testing.B) {
	_, _, assign := benchFixture()
	other := make([]int, len(assign))
	for i := range other {
		other[i] = (assign[i] + i%2) % 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ARI(assign, other); err != nil {
			b.Fatal(err)
		}
	}
}
