package core

import (
	"math"
	"testing"

	"roadpart/internal/graph"
)

func TestSimilarityWeightedDiscriminates(t *testing.T) {
	// Path with one density jump: the boundary edge must be much weaker
	// than the within-region edges.
	gb := graph.NewBuilder(6)
	for i := 0; i+1 < 6; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	f := []float64{1, 1.01, 1.02, 9, 9.01, 9.02}
	wg := SimilarityWeighted(g, f)
	var boundary, within float64
	for _, e := range wg.Neighbors(2) {
		if e.To == 3 {
			boundary = e.W
		}
		if e.To == 1 {
			within = e.W
		}
	}
	if boundary >= within {
		t.Fatalf("boundary weight %v should be below within weight %v", boundary, within)
	}
	if boundary <= 0 || within > 1 {
		t.Fatalf("weights out of range: boundary=%v within=%v", boundary, within)
	}
}

func TestSimilarityWeightedUniformFeatures(t *testing.T) {
	gb := graph.NewBuilder(3)
	gb.AddEdge(0, 1, 1)
	gb.AddEdge(1, 2, 1)
	g := gb.Build()
	wg := SimilarityWeighted(g, []float64{5, 5, 5})
	for _, e := range wg.Neighbors(1) {
		if e.W != 1 {
			t.Fatalf("uniform features should give unit weights, got %v", e.W)
		}
	}
}

func TestSimilarityWeightedLocalBandwidth(t *testing.T) {
	// The bandwidth is the mean squared *edge* difference, so a smooth
	// gradient still yields weights spread below 1 rather than all ≈1.
	const n = 50
	gb := graph.NewBuilder(n)
	f := make([]float64, n)
	for i := 0; i+1 < n; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	for i := range f {
		f[i] = float64(i) * 0.001 // tiny local steps, large global range
	}
	// One sharp jump in the middle.
	for i := n / 2; i < n; i++ {
		f[i] += 0.05
	}
	wg := SimilarityWeighted(g, f)
	var jump float64
	minOther := math.Inf(1)
	for u := 0; u < n; u++ {
		for _, e := range wg.Neighbors(u) {
			if e.To != u+1 {
				continue
			}
			if u == n/2-1 {
				jump = e.W
			} else if e.W < minOther {
				minOther = e.W
			}
		}
	}
	if jump >= minOther {
		t.Fatalf("jump edge (%v) should be the weakest (others >= %v)", jump, minOther)
	}
}
