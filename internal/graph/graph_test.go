package graph

import (
	"math"
	"testing"
	"testing/quick"
)

// edge is one (u, v, w) input to build.
type edge struct {
	u, v int
	w    float64
}

// build returns the graph on n nodes with the given edges, added in order.
func build(n int, edges ...edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// path returns a path graph 0-1-2-...-n-1 with unit weights.
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1, 1); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestAddEdgeValidation(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range edge should error")
	}
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self-loop should error")
	}
	if err := b.AddEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if g := b.Build(); g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestDegreesAndWeights(t *testing.T) {
	g := build(3, edge{0, 1, 2}, edge{0, 2, 3})
	if g.Degree(0) != 2 || g.Degree(1) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if g.WeightedDegree(0) != 5 {
		t.Fatalf("weighted degree = %v, want 5", g.WeightedDegree(0))
	}
	if g.TotalWeight() != 5 {
		t.Fatalf("total weight = %v, want 5", g.TotalWeight())
	}
}

func TestHasEdge(t *testing.T) {
	g := path(4)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("existing edge not found")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Fatal("out-of-range HasEdge should be false")
	}
}

func TestComponents(t *testing.T) {
	g := build(6, edge{0, 1, 1}, edge{1, 2, 1}, edge{3, 4, 1})
	comp, count := g.GroupComponents(make([]int, 6))
	if count != 3 {
		t.Fatalf("count = %d, want 3 (two chains + isolated 5)", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("chain 0-1-2 split")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Fatal("chain 3-4 mislabeled")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("isolated node mislabeled")
	}
	// Deterministic id order: component of node 0 is 0.
	if comp[0] != 0 || comp[3] != 1 || comp[5] != 2 {
		t.Fatalf("ids not assigned in lowest-node order: %v", comp)
	}
}

func TestComponentsFiltered(t *testing.T) {
	g := path(4)
	group := []int{0, 0, 1, 1}
	comp, count := g.GroupComponents(group)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("filtered components wrong: %v", comp)
	}
}

func TestGroupComponentsSplitsDisconnectedGroup(t *testing.T) {
	// Nodes 0 and 3 share a group but are not adjacent within it.
	g := path(4)
	group := []int{0, 1, 1, 0}
	_, count := g.GroupComponents(group)
	if count != 3 {
		t.Fatalf("count = %d, want 3 ({0},{1,2},{3})", count)
	}
}

func TestIsConnectedSubset(t *testing.T) {
	g := path(5)
	if !g.IsConnectedSubset([]int{1, 2, 3}) {
		t.Fatal("contiguous path slice should be connected")
	}
	if g.IsConnectedSubset([]int{0, 2}) {
		t.Fatal("0 and 2 are not adjacent")
	}
	if !g.IsConnectedSubset(nil) || !g.IsConnectedSubset([]int{4}) {
		t.Fatal("empty and singleton sets are connected by definition")
	}
	if g.IsConnectedSubset([]int{1, 2, 1}) {
		t.Fatal("a set with a repeated node is not connected")
	}
	if g.IsConnectedSubset([]int{1, 5}) || g.IsConnectedSubset([]int{-1, 0}) {
		t.Fatal("a set with a node outside the graph is not connected")
	}
}

func TestInduced(t *testing.T) {
	g := build(5, edge{0, 1, 1}, edge{1, 2, 2}, edge{2, 3, 3}, edge{3, 4, 4})
	sub, orig, err := g.Induced([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced has %d nodes %d edges, want 3/2", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[2] != 3 {
		t.Fatalf("mapping wrong: %v", orig)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("induced edges wrong")
	}
	if _, _, err := g.Induced([]int{1, 1}); err == nil {
		t.Fatal("duplicate nodes should error")
	}
	if _, _, err := g.Induced([]int{99}); err == nil {
		t.Fatal("out-of-range node should error")
	}
}

func TestAdjacencyCSR(t *testing.T) {
	g := build(3, edge{0, 1, 2}, edge{0, 1, 3}) // parallel edges sum in the matrix
	m, err := g.AdjacencyCSR()
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 {
		t.Fatalf("adjacency = %v / %v, want 5", m.At(0, 1), m.At(1, 0))
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(j, i) != m.At(i, j) {
				t.Fatalf("adjacency not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// Property: component count plus edge count is at least node count for
// forests, and component labels are always a valid partition.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(edges []uint16, nn uint8) bool {
		n := int(nn%50) + 1
		b := NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := int(edges[i])%n, int(edges[i+1])%n
			if u != v {
				b.AddEdge(u, v, 1)
			}
		}
		g := b.Build()
		comp, count := g.GroupComponents(make([]int, n))
		if count < 1 || count > n {
			return false
		}
		seen := make([]bool, count)
		for _, c := range comp {
			if c < 0 || c >= count {
				return false
			}
			seen[c] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		// Endpoint of every edge shares its component.
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(u) {
				if comp[u] != comp[e.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuotient(t *testing.T) {
	// Groups {0,1} and {2,3} share two edges (weights 3 and 4); group 2
	// has no members. Intra-group edges vanish.
	g := build(4, edge{0, 2, 3}, edge{0, 1, 5}, edge{3, 1, 4}, edge{2, 3, 1})
	q, err := g.Quotient([]int{0, 0, 1, 1}, 3, func(_, _ int, w float64) float64 { return w })
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != 3 || q.M() != 1 {
		t.Fatalf("quotient has %d nodes %d edges, want 3/1", q.N(), q.M())
	}
	if e := q.Neighbors(0); len(e) != 1 || e[0].To != 1 || e[0].W != math.Sqrt((9+16)/2.0) {
		t.Fatalf("group 0 links %v, want one to group 1 at the RMS weight", e)
	}
}
