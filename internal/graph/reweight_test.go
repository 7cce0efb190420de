package graph

import "testing"

func TestReweighted(t *testing.T) {
	g := build(3, edge{0, 1, 2}, edge{1, 2, 3})
	doubled := g.Reweighted(func(u, v int, w float64) float64 { return 2 * w })
	if doubled.TotalWeight() != 10 {
		t.Fatalf("total = %v, want 10", doubled.TotalWeight())
	}
	// Topology preserved.
	if doubled.N() != 3 || doubled.M() != 2 || !doubled.HasEdge(0, 1) {
		t.Fatal("reweighting changed topology")
	}
	// Original untouched.
	if g.TotalWeight() != 5 {
		t.Fatal("Reweighted mutated the source graph")
	}
}

func TestReweightedReceivesEndpoints(t *testing.T) {
	g := build(4, edge{1, 3, 1})
	rw := g.Reweighted(func(u, v int, w float64) float64 { return float64(u + v) })
	for _, e := range rw.Neighbors(1) {
		if e.W != 4 {
			t.Fatalf("weight = %v, want u+v = 4", e.W)
		}
	}
}

func TestReweightedParallelEdges(t *testing.T) {
	g := build(2, edge{0, 1, 1}, edge{0, 1, 2})
	rw := g.Reweighted(func(u, v int, w float64) float64 { return w * 10 })
	if rw.M() != 2 {
		t.Fatalf("parallel edges lost: M = %d", rw.M())
	}
	if rw.TotalWeight() != 30 {
		t.Fatalf("total = %v, want 30", rw.TotalWeight())
	}
}
