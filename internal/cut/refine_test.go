package cut

import (
	"testing"

	"roadpart/internal/graph"
	"roadpart/internal/metrics"
)

func TestRefineRecoversPerturbedBarbell(t *testing.T) {
	g := barbell(6, 1, 0.05)
	f := make([]float64, 12)
	for i := range f {
		if i >= 6 {
			f[i] = 1
		}
	}
	// The clean split with two nodes swapped across the bridge.
	perturbed := make([]int, 12)
	for i := 6; i < 12; i++ {
		perturbed[i] = 1
	}
	perturbed[5] = 1
	perturbed[6] = 0

	before, err := AlphaCutValue(g, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	refined, k, moves, err := RefineAlphaCut(g, f, perturbed, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("expected at least one improving move")
	}
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	after, err := AlphaCutValue(g, refined)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("refinement did not lower α-Cut: %v -> %v", before, after)
	}
	// The clean split: cliques pure again.
	for i := 1; i < 6; i++ {
		if refined[i] != refined[0] {
			t.Fatalf("left clique still split: %v", refined)
		}
	}
	for i := 7; i < 12; i++ {
		if refined[i] != refined[6] {
			t.Fatalf("right clique still split: %v", refined)
		}
	}
}

func TestRefineLeavesOptimumAlone(t *testing.T) {
	g := barbell(5, 1, 0.05)
	f := make([]float64, 10)
	clean := make([]int, 10)
	for i := 5; i < 10; i++ {
		clean[i] = 1
		f[i] = 1
	}
	refined, k, moves, err := RefineAlphaCut(g, f, clean, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Fatalf("clean split should need no moves, did %d", moves)
	}
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	for i := range clean {
		if refined[i] != clean[i] {
			t.Fatal("refinement changed an optimal partition")
		}
	}
}

func TestRefineKeepsConnectivity(t *testing.T) {
	// A ring with noisy initial labels: after refinement + repair, every
	// partition must be connected.
	const n = 24
	gb := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		gb.AddEdge(i, (i+1)%n, 1)
	}
	g := gb.Build()
	f := make([]float64, n)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = (i * 7 % 3)
		f[i] = float64(i % 3)
	}
	refined, k, _, err := RefineAlphaCut(g, f, assign, RefineOptions{MaxPasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 {
		t.Fatalf("k = %d", k)
	}
	if err := metrics.ValidatePartition(g, refined); err != nil {
		t.Fatal(err)
	}
}

func TestRefineErrors(t *testing.T) {
	g := barbell(3, 1, 1)
	if _, _, _, err := RefineAlphaCut(g, []float64{1}, make([]int, 6), RefineOptions{}); err == nil {
		t.Fatal("feature mismatch should error")
	}
	if _, _, _, err := RefineAlphaCut(g, make([]float64, 6), []int{0}, RefineOptions{}); err == nil {
		t.Fatal("assignment mismatch should error")
	}
}

// TestRefineTieBreakDeterministic: node 0 gains equally from joining
// partition 1 or 2 (the arms 0-2-3 and 0-4-5 are mirror images), so only
// the visit order of the adjacent partitions decides the move. It must
// be ascending id, never map order.
func TestRefineTieBreakDeterministic(t *testing.T) {
	gb := graph.NewBuilder(8)
	for _, e := range []struct {
		u, v int
		w    float64
	}{{0, 1, .1}, {1, 6, 3}, {6, 7, 3}, {1, 7, 3}, {0, 2, 5}, {0, 4, 5}, {2, 3, 1}, {4, 5, 1}} {
		if err := gb.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g := gb.Build()
	assign := []int{0, 0, 1, 1, 2, 2, 0, 0}
	f := make([]float64, 8)
	var first []int
	for i := 0; i < 100; i++ {
		out, _, _, err := RefineAlphaCut(g, f, assign, RefineOptions{MaxPasses: 1})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
			continue
		}
		for v := range out {
			if out[v] != first[v] {
				t.Fatalf("call %d: %v, first call %v", i, out, first)
			}
		}
	}
}
