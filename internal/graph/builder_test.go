package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"roadpart/internal/linalg"
)

// randomEdges draws an edge list on n nodes with parallel edges, zero
// weights and (for small edge counts) isolated nodes. With dyadic set,
// weights are multiples of 1/8 in [-2, 2] and a pair may repeat up to
// four times; otherwise weights are arbitrary non-negative floats and a
// pair repeats at most twice. Either way every sum of parallel weights is
// independent of summation order (see TestAdjacencyCSRMatchesTriplets).
func randomEdges(rng *rand.Rand, n int, dyadic bool) []edge {
	maxCopies := 2
	if dyadic {
		maxCopies = 4
	}
	var edges []edge
	copies := map[[2]int]int{}
	for i, m := 0, rng.Intn(3*n+1); i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		key := [2]int{min(u, v), max(u, v)}
		reps := 1 + rng.Intn(maxCopies)
		for r := 0; r < reps && copies[key] < maxCopies; r++ {
			copies[key]++
			var w float64
			switch {
			case rng.Intn(6) == 0:
				w = 0
			case dyadic:
				w = float64(rng.Intn(33)-16) / 8
			default:
				w = rng.ExpFloat64()
			}
			// Alternate the orientation so rows fill from both ends.
			if r%2 == 1 {
				u, v = v, u
			}
			edges = append(edges, edge{u, v, w})
		}
	}
	return edges
}

// TestBuilderMatchesAppendedLists checks the frozen layout against the
// append-per-edge adjacency lists it replaces: every row lists its edges
// in AddEdge order, and the counts and weight sums agree bit for bit.
func TestBuilderMatchesAppendedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		edges := randomEdges(rng, n, trial%2 == 1)
		g := build(n, edges...)

		model := make([][]Edge, n)
		for _, e := range edges {
			model[e.u] = append(model[e.u], Edge{To: e.v, W: e.w})
			model[e.v] = append(model[e.v], Edge{To: e.u, W: e.w})
		}
		var total float64
		for u := range model {
			for _, e := range model[u] {
				total += e.W
			}
		}
		if g.N() != n || g.M() != len(edges) {
			t.Fatalf("trial %d: N=%d M=%d, want %d/%d", trial, g.N(), g.M(), n, len(edges))
		}
		if math.Float64bits(g.TotalWeight()) != math.Float64bits(total/2) {
			t.Fatalf("trial %d: TotalWeight %v, want %v", trial, g.TotalWeight(), total/2)
		}
		for u := 0; u < n; u++ {
			got := g.Neighbors(u)
			if g.Degree(u) != len(model[u]) || len(got) != len(model[u]) {
				t.Fatalf("trial %d node %d: degree %d, want %d", trial, u, g.Degree(u), len(model[u]))
			}
			var wd float64
			for i, e := range model[u] {
				if got[i].To != e.To || math.Float64bits(got[i].W) != math.Float64bits(e.W) {
					t.Fatalf("trial %d node %d: row %v, want %v in AddEdge order", trial, u, got, model[u])
				}
				wd += e.W
			}
			if math.Float64bits(g.WeightedDegree(u)) != math.Float64bits(wd) {
				t.Fatalf("trial %d node %d: weighted degree %v, want %v", trial, u, g.WeightedDegree(u), wd)
			}
		}
	}
}

// tripletCSR is the adjacency assembly the flat rows replaced: every edge
// endpoint becomes a (row, column, value) triplet, one global sort orders
// them by (row, column), and runs of equal coordinates are summed, zero
// sums dropped. The sort is not stable, so it sums three or more parallel
// edges in an order nothing defines; randomEdges keeps every sum
// order-independent so the two assemblies can be held to the same bits.
func tripletCSR(g *Graph) (*linalg.CSR, error) {
	type coord struct {
		row, col int
		val      float64
	}
	var sorted []coord
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			sorted = append(sorted, coord{u, e.To, e.W})
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].row != sorted[j].row {
			return sorted[i].row < sorted[j].row
		}
		return sorted[i].col < sorted[j].col
	})
	rowPtr := make([]int, g.N()+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].row == sorted[i].row && sorted[j].col == sorted[i].col {
			v += sorted[j].val
			j++
		}
		if v != 0 {
			colIdx = append(colIdx, sorted[i].col)
			vals = append(vals, v)
			rowPtr[sorted[i].row+1]++
		}
		i = j
	}
	for r := 0; r < g.N(); r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return linalg.NewCSR(g.N(), g.N(), rowPtr, colIdx, vals)
}

// rowsOf lists every stored entry of m as "row:col=bits"; NewCSR
// stores exactly the nonzero entries.
func rowsOf(m *linalg.CSR) []string {
	var out []string
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 {
				out = append(out, fmt.Sprintf("%d:%d=%016x", i, j, math.Float64bits(v)))
			}
		}
	}
	return out
}

func TestAdjacencyCSRMatchesTriplets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		g := build(n, randomEdges(rng, n, trial%2 == 1)...)
		got, err := g.AdjacencyCSR()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tripletCSR(g)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rowsOf(got), rowsOf(want)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: AdjacencyCSR\n%v\nwant\n%v", trial, a, b)
		}
	}
}

// TestAdjacencyCSRSumsInAddEdgeOrder pins the summation order of
// parallel edges, the order that keeps the matrix reproducible to the bit.
func TestAdjacencyCSRSumsInAddEdgeOrder(t *testing.T) {
	ws := []float64{1e16, 1, -1e16, 1}
	want := ((0 + ws[0]) + ws[1] + ws[2]) + ws[3] // 1; the reverse order gives 2
	var edges []edge
	for _, w := range ws {
		edges = append(edges, edge{0, 1, w})
	}
	m, err := build(2, edges...).AdjacencyCSR()
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != want || m.At(1, 0) != want {
		t.Fatalf("sums %v / %v, want %v in AddEdge order", m.At(0, 1), m.At(1, 0), want)
	}
}

// ring returns a ring on n nodes with one chord per node, built but not
// frozen.
func ring(n int) *Builder {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		_ = b.AddEdge(i, (i+1)%n, 1)
		_ = b.AddEdge(i, (i+n/2)%n, 0.5)
	}
	return b
}

// TestBuildAndAdjacencyAllocateFixedCounts pins Build and AdjacencyCSR at
// a fixed number of allocations whatever the graph size: the layout is a
// handful of flat arrays, never one allocation per node or per edge.
func TestBuildAndAdjacencyAllocateFixedCounts(t *testing.T) {
	const wantBuild, wantCSR = 3, 5
	for _, n := range []int{16, 4096} {
		b := ring(n)
		g := b.Build()
		if got := testing.AllocsPerRun(5, func() { b.Build() }); got != wantBuild {
			t.Errorf("n=%d: Build allocates %v, want %d", n, got, wantBuild)
		}
		if got := testing.AllocsPerRun(5, func() { _, _ = g.AdjacencyCSR() }); got != wantCSR {
			t.Errorf("n=%d: AdjacencyCSR allocates %v, want %d", n, got, wantCSR)
		}
	}
}
