package cut

import (
	"math"
	"slices"
	"testing"

	"roadpart/internal/graph"
	"roadpart/internal/linalg"
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
	// Each label must induce a connected set: with every label of [0, k)
	// in use, k pieces leave no label split.
	for l := range k {
		if !slices.Contains(out, l) {
			t.Fatalf("label %d unused: %v", l, out)
		}
	}
	if _, pieces := g.GroupComponents(out); pieces != k {
		t.Fatalf("%d labels form %d connected pieces: %v", k, pieces, out)
	}
	// Node 1 (feature 1) should have been absorbed by the low-density
	// side, node 0's group, not the high side.
	if out[1] != out[0] || out[1] != out[2] {
		t.Fatalf("merge ignored feature proximity: %v", out)
	}
}

// TestRepairMergesPastAnIsland puts an isolated node, the smallest piece,
// next to a 10-node path cut into 5 pieces. The island has no neighbour
// and must not stop the merges: k=2 gives the island and the whole path,
// four merges, which roadpart_repair_merges observes.
func TestRepairMergesPastAnIsland(t *testing.T) {
	gb := graph.NewBuilder(11)
	for i := 1; i+1 < 11; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	f := []float64{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	assign := []int{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	calls, merges := repairMerges.Count(), repairMerges.Sum()
	out, k, err := RepairConnectivity(g, f, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if k != 2 || !slices.Equal(out, want) {
		t.Fatalf("got k=%d %v, want k=2 %v", k, out, want)
	}
	if c, m := repairMerges.Count()-calls, repairMerges.Sum()-merges; c != 1 || m != 4 {
		t.Fatalf("roadpart_repair_merges observed %d calls and %v merges, want 1 and 4", c, m)
	}
	// Two islands and k=1: the graph's own two components are the floor.
	if _, k, err = RepairConnectivity(g, f, assign, 1); err != nil || k != 2 {
		t.Fatalf("k=1 on two components: got k=%d, err %v; want 2", k, err)
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
	d := adj.RowSums()
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = float64((i*3)%5) - 2
	}
	// αD − A.
	checkApplyMatchesDense(t, op, x, func(i, j int) float64 {
		v := -adj.At(i, j)
		if i == j {
			v += 0.4 * d[i]
		}
		return v
	})
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

// repairOracle is RepairConnectivity without renumbering in place: every
// round relabels the smallest piece that has a neighbouring piece (pieces
// tried in (size, number) order) and recomputes the components with a
// fresh search.
func repairOracle(g *graph.Graph, f []float64, assign []int, k int) ([]int, int) {
	labels := make([]int, g.N())
	count := g.GroupComponentsInto(assign, labels, g.N()+1)
	_, graphComponents := g.GroupComponents(make([]int, g.N()))
	floor := max(k, graphComponents)
	for count > floor {
		size, sum := make([]int, count), make([]float64, count)
		for v, l := range labels {
			size[l]++
			sum[l] += f[v]
		}
		order := make([]int, count)
		for l := range order {
			order[l] = l
		}
		slices.SortStableFunc(order, func(a, b int) int { return size[a] - size[b] })
		smallest, best := -1, -1
		for _, s := range order {
			muS := sum[s] / float64(size[s])
			bestD := math.Inf(1)
			for v, l := range labels {
				if l != s {
					continue
				}
				for _, e := range g.Neighbors(v) {
					t := labels[e.To]
					if t == s {
						continue
					}
					if d := math.Abs(sum[t]/float64(size[t]) - muS); d < bestD {
						best, bestD = t, d
					}
				}
			}
			if best >= 0 {
				smallest = s
				break
			}
		}
		if best < 0 {
			break
		}
		for v, l := range labels {
			if l == smallest {
				labels[v] = best
			}
		}
		next := make([]int, g.N())
		count = g.GroupComponentsInto(labels, next, g.N()+1)
		labels = next
	}
	return renumber(labels)
}

// TestRepairMatchesOracle requires RepairConnectivity to return exactly
// the oracle's labels and count on random graphs, connected or not,
// with fragmented labelings and repeated feature values (ties).
func TestRepairMatchesOracle(t *testing.T) {
	rng := linalg.RNGFromState(0xc0ffee)
	merges := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		gb := graph.NewBuilder(n)
		for e := rng.Intn(2*n + 1); e > 0; e-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				gb.AddEdge(u, v, 1)
			}
		}
		g := gb.Build()
		labelsK := 1 + rng.Intn(10)
		assign := make([]int, n)
		f := make([]float64, n)
		for v := range assign {
			assign[v] = rng.Intn(labelsK)
			f[v] = float64(rng.Intn(5)) // repeated values tie mean distances
		}
		k := 1 + rng.Intn(labelsK)
		want, wantK := repairOracle(g, f, assign, k)
		got, gotK, err := RepairConnectivity(g, f, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		if gotK != wantK || !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, k=%d): got k=%d %v, oracle k=%d %v", trial, n, k, gotK, got, wantK, want)
		}
		pieces := g.GroupComponentsInto(assign, make([]int, n), n+1)
		merges += pieces - gotK
	}
	if merges == 0 {
		t.Fatal("no trial merged a piece; the comparison is vacuous")
	}
}
