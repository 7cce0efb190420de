package cut

import (
	"math/rand"
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
	refined, k, moves, err := RefineAlphaCut(g, f, perturbed)
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
	refined, k, moves, err := RefineAlphaCut(g, f, clean)
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
	refined, k, _, err := RefineAlphaCut(g, f, assign)
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
	if _, _, _, err := RefineAlphaCut(g, []float64{1}, make([]int, 6)); err == nil {
		t.Fatal("feature mismatch should error")
	}
	if _, _, _, err := RefineAlphaCut(g, make([]float64, 6), []int{0}); err == nil {
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
		out, _, _, err := RefineAlphaCut(g, f, assign)
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

// The TestBoundaryRefine tests drive RefineMoves, the in-place move
// loop the multilevel path runs at each uncoarsening step.

func TestBoundaryRefineNeverWorsens(t *testing.T) {
	g := barbell(8, 1, 0.3)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		labels := make([]int, g.N())
		for i := range labels {
			labels[i] = i / 8 // natural halves
		}
		// Flip a few vertices across the cut.
		for f := 0; f < 3; f++ {
			v := rng.Intn(g.N())
			labels[v] = 1 - labels[v]
		}
		// Guard against a flip emptying a side.
		counts := [2]int{}
		for _, l := range labels {
			counts[l]++
		}
		if counts[0] == 0 || counts[1] == 0 {
			continue
		}
		before, err := AlphaCutValue(g, labels)
		if err != nil {
			t.Fatal(err)
		}
		moves, err := RefineMoves(g, labels, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		after, err := AlphaCutValue(g, labels)
		if err != nil {
			t.Fatal(err)
		}
		if after > before+1e-12 {
			t.Fatalf("trial %d: refinement worsened αCut %v -> %v (%d moves)", trial, before, after, moves)
		}
	}
}

func TestBoundaryRefineRecoversBarbellSplit(t *testing.T) {
	// One vertex on the wrong side of a clean barbell: refinement must
	// move it back (the clique pull dominates the bridge).
	g := barbell(8, 1, 0.1)
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = i / 8
	}
	labels[3] = 1
	moves, err := RefineMoves(g, labels, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("no moves on an obviously misassigned vertex")
	}
	for i := 0; i < 8; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("left clique split after refinement: %v", labels[:8])
		}
	}
	for i := 8; i < 16; i++ {
		if labels[i] != labels[8] {
			t.Fatalf("right clique split after refinement: %v", labels[8:])
		}
	}
	if labels[0] == labels[8] {
		t.Fatal("refinement merged the barbell halves")
	}
}

func TestBoundaryRefinePreservesAllParts(t *testing.T) {
	g := barbell(5, 1, 0.2)
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = i % 3
	}
	if _, err := RefineMoves(g, labels, 3, 8); err != nil {
		t.Fatal(err)
	}
	present := make([]bool, 3)
	for _, l := range labels {
		present[l] = true
	}
	for p, ok := range present {
		if !ok {
			t.Fatalf("refinement emptied partition %d", p)
		}
	}
}

func TestBoundaryRefineDeterministic(t *testing.T) {
	g := barbell(7, 1, 0.4)
	mk := func() []int {
		labels := make([]int, g.N())
		for i := range labels {
			labels[i] = (i * 5) % 2
		}
		return labels
	}
	a, b := mk(), mk()
	ma, err := RefineMoves(g, a, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := RefineMoves(g, b, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ma != mb {
		t.Fatalf("move counts differ across identical runs: %d vs %d", ma, mb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("labels differ at %d across identical runs", i)
		}
	}
}

func TestBoundaryRefineValidation(t *testing.T) {
	g := barbell(4, 1, 0.3)
	if _, err := RefineMoves(g, make([]int, 3), 2, 4); err == nil {
		t.Error("short label slice accepted")
	}
	bad := make([]int, g.N())
	bad[0] = 5
	if _, err := RefineMoves(g, bad, 2, 4); err == nil {
		t.Error("out-of-range label accepted")
	}
	sparse := make([]int, g.N())
	for i := range sparse {
		sparse[i] = 2 // label 0,1 unused
	}
	if _, err := RefineMoves(g, sparse, 3, 4); err == nil {
		t.Error("non-dense labels accepted")
	}
}
