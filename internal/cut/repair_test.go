package cut

import (
	"testing"

	"roadpart/internal/graph"
)

func TestRepairConnectivitySplitsAndMerges(t *testing.T) {
	// Path 0-1-2-3-4-5 with label pattern 0,1,0,0,1,1: label 0 and 1 are
	// both disconnected. Repair to k=2 must yield 2 connected partitions.
	gb := graph.NewBuilder(6)
	for i := 0; i+1 < 6; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	f := []float64{1, 1, 1, 5, 5, 5}
	assign := []int{0, 1, 0, 0, 1, 1}
	out, k, err := RepairConnectivity(g, f, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	// Each label must induce a connected set.
	parts := map[int][]int{}
	for v, l := range out {
		parts[l] = append(parts[l], v)
	}
	for l, members := range parts {
		if !g.IsConnectedSubset(members) {
			t.Fatalf("partition %d disconnected: %v", l, members)
		}
	}
	// Node 1 (feature 1) should have been absorbed by the low-density
	// side, node 0's group, not the high side.
	if out[1] != out[0] || out[1] != out[2] {
		t.Fatalf("merge ignored feature proximity: %v", out)
	}
}

func TestRepairConnectivityAlreadyGood(t *testing.T) {
	gb := graph.NewBuilder(4)
	for i := 0; i+1 < 4; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	f := []float64{1, 1, 9, 9}
	assign := []int{0, 0, 1, 1}
	out, k, err := RepairConnectivity(g, f, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if out[0] != out[1] || out[2] != out[3] || out[0] == out[2] {
		t.Fatalf("repair changed a valid partition: %v", out)
	}
}

func TestRepairConnectivityDisconnectedGraphFloor(t *testing.T) {
	// Two disjoint edges: the graph itself has 2 components, so k=1 is
	// unachievable; repair must stop at 2.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 1, 1)
	gb.AddEdge(2, 3, 1)
	g := gb.Build()
	out, k, err := RepairConnectivity(g, []float64{1, 1, 2, 2}, []int{0, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("k = %d, want 2 (graph component floor)", k)
	}
	if out[0] != out[1] || out[2] != out[3] {
		t.Fatalf("components mislabeled: %v", out)
	}
}

func TestRepairConnectivityErrors(t *testing.T) {
	gb := graph.NewBuilder(2)
	gb.AddEdge(0, 1, 1)
	g := gb.Build()
	if _, _, err := RepairConnectivity(g, []float64{1}, []int{0, 0}, 1); err == nil {
		t.Fatal("feature length mismatch should error")
	}
	if _, _, err := RepairConnectivity(g, []float64{1, 1}, []int{0, 0}, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestScalarAlphaOpMatchesDense(t *testing.T) {
	g := barbell(4, 1, 0.3)
	adj, _ := g.AdjacencyCSR()
	op, err := NewScalarAlphaOp(adj, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	dense := op.Dense()
	n := op.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*3)%5) - 2
	}
	got := make([]float64, n)
	want := make([]float64, n)
	op.Apply(got, x)
	dense.MulVec(want, x)
	for i := range got {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("Apply[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
}

func TestScalarAlphaOpValidation(t *testing.T) {
	g := barbell(3, 1, 1)
	adj, _ := g.AdjacencyCSR()
	if _, err := NewScalarAlphaOp(adj, -0.1); err == nil {
		t.Fatal("alpha < 0 should error")
	}
	if _, err := NewScalarAlphaOp(adj, 1.1); err == nil {
		t.Fatal("alpha > 1 should error")
	}
}

func TestPartitionScalarAlphaBarbell(t *testing.T) {
	g := barbell(6, 1, 0.05)
	res, err := partition(g, 2, MethodScalarAlpha, Options{Seed: 1, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d, want 2", res.K)
	}
	if res.Assign[0] == res.Assign[11] {
		t.Fatal("scalar α-Cut failed to separate the cliques")
	}
}
