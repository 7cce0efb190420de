package coarsen

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/graph"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// testGraph builds a city-sized dual graph with a synthetic density
// field — the shape the multilevel path sees in production.
func testGraph(tb testing.TB) (*graph.Graph, []float64) {
	tb.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 1200, TargetSegments: 2300, Jitter: 0.15, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		tb.Fatal(err)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		tb.Fatal(err)
	}
	return g, net.Densities()
}

// components counts connected components with a plain BFS, independent
// of the graph package's pooled helpers.
func components(g *graph.Graph) int {
	seen := make([]bool, g.N())
	queue := make([]int, 0, g.N())
	n := 0
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		n++
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Neighbors(u) {
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	return n
}

func TestBuildInvariants(t *testing.T) {
	g, f := testGraph(t)
	opts := Options{TargetNodes: 64, Seed: 11}
	h, err := Build(context.Background(), g, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() < 3 {
		t.Fatalf("expected several levels coarsening %d nodes to 64, got %d", g.N(), h.Levels())
	}
	for i := 1; i < len(h.graphs); i++ {
		if n, above := h.graphs[i].N(), h.graphs[i-1].N(); n >= above {
			t.Fatalf("level %d has %d nodes, not fewer than the %d above it", i, n, above)
		}
	}
	if last := h.Graph().N(); last > opts.TargetNodes {
		// The stall guard may stop early, but not on this graph: grids
		// match densely.
		t.Errorf("coarsest level has %d nodes, want <= %d", last, opts.TargetNodes)
	}

	for lvl := 0; lvl+1 < len(h.graphs); lvl++ {
		fine, coarse, cid := h.graphs[lvl], h.graphs[lvl+1], h.maps[lvl]

		// Vertex-weight conservation: every level aggregates exactly the
		// finest vertices.
		var sum float64
		for _, w := range h.weights[lvl+1] {
			sum += w
		}
		if sum != float64(g.N()) {
			t.Errorf("level %d weights sum to %v, want %d", lvl+1, sum, g.N())
		}

		// Edge-weight conservation: coarse total = fine total minus the
		// contracted (intra-cluster) weight.
		var intra float64
		for u := 0; u < fine.N(); u++ {
			for _, e := range fine.Neighbors(u) {
				if e.To > u && cid[e.To] == cid[u] {
					intra += e.W
				}
			}
		}
		wantTotal := fine.TotalWeight() - intra
		if got := coarse.TotalWeight(); math.Abs(got-wantTotal) > 1e-6*math.Max(1, wantTotal) {
			t.Errorf("level %d coarse weight %v, want %v", lvl+1, got, wantTotal)
		}

		// Matched pairs are adjacent: any two fine vertices sharing a
		// coarse id must share an edge.
		first := make(map[int]int)
		for u := 0; u < fine.N(); u++ {
			v, ok := first[cid[u]]
			if !ok {
				first[cid[u]] = u
				continue
			}
			adjacent := false
			for _, e := range fine.Neighbors(v) {
				if e.To == u {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("level %d: cluster %d merged non-adjacent vertices %d and %d", lvl, cid[u], v, u)
			}
		}

		// Contraction preserves connectivity structure.
		if cf, cc := components(fine), components(coarse); cf != cc {
			t.Errorf("level %d has %d components, coarse level %d", lvl, cf, cc)
		}
	}

	// Density aggregation: the weighted mean of coarse features equals
	// the mean of fine features at every level.
	var want float64
	for _, x := range f {
		want += x
	}
	for lvl := range h.graphs {
		var got float64
		for i, x := range h.feats[lvl] {
			got += x * h.weights[lvl][i]
		}
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("level %d weighted feature mass %v, want %v", lvl, got, want)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	g, f := testGraph(t)
	opts := Options{TargetNodes: 64, Seed: 5}
	a, err := Build(context.Background(), g, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), g, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if la, lb := a.Levels(), b.Levels(); la != lb {
		t.Fatalf("levels %d vs %d across identical Builds", la, lb)
	}
	for lvl := range a.maps {
		for v := range a.maps[lvl] {
			if a.maps[lvl][v] != b.maps[lvl][v] {
				t.Fatalf("level %d: cluster map differs at vertex %d across identical Builds", lvl, v)
			}
		}
	}
	// A different seed visits in a different order and (almost surely)
	// produces a different matching.
	c, err := Build(context.Background(), g, f, Options{TargetNodes: 64, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := c.Levels() == a.Levels()
	if same {
		for lvl := range a.maps {
			for v := range a.maps[lvl] {
				if a.maps[lvl][v] != c.maps[lvl][v] {
					same = false
					break
				}
			}
		}
	}
	if same {
		t.Error("seeds 5 and 6 produced identical hierarchies; the seed is not reaching the matching")
	}
}

func TestProjectToFinest(t *testing.T) {
	g, f := testGraph(t)
	h, err := Build(context.Background(), g, f, Options{TargetNodes: 64, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	coarse := make([]int, h.Graph().N())
	for i := range coarse {
		coarse[i] = i % k
	}
	fine, gotK, err := h.ProjectToFinest(context.Background(), coarse, k)
	if err != nil {
		t.Fatal(err)
	}
	if gotK != k {
		t.Fatalf("projection changed k: %d -> %d", k, gotK)
	}
	if len(fine) != g.N() {
		t.Fatalf("projected %d labels for %d finest nodes", len(fine), g.N())
	}
	present := make([]bool, k)
	for v, l := range fine {
		if l < 0 || l >= k {
			t.Fatalf("label %d at vertex %d outside [0,%d)", l, v, k)
		}
		present[l] = true
	}
	for l, ok := range present {
		if !ok {
			t.Errorf("projection emptied partition %d", l)
		}
	}
	// Determinism of the full project+refine path.
	again, _, err := h.ProjectToFinest(context.Background(), coarse, k)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fine {
		if fine[v] != again[v] {
			t.Fatalf("projection differs at vertex %d across identical calls", v)
		}
	}
}

func TestBuildCancelled(t *testing.T) {
	g, f := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, f, Options{TargetNodes: 64}); err != context.Canceled {
		t.Fatalf("Build with cancelled ctx: %v, want context.Canceled", err)
	}
}

func TestBuildErrors(t *testing.T) {
	g, f := testGraph(t)
	if _, err := Build(context.Background(), graph.NewBuilder(0).Build(), nil, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Build(context.Background(), g, f[:3], Options{}); err == nil {
		t.Error("mismatched feature length accepted")
	}
	h, err := Build(context.Background(), g, f, Options{TargetNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ProjectToFinest(context.Background(), make([]int, 1), 1); err == nil {
		t.Error("mismatched label length accepted")
	}
}

// TestBuildBelowTarget pins the degenerate case: a graph already inside
// the comfort zone yields a one-level hierarchy whose projection is the
// identity, so MultilevelOn on a small network equals the flat path.
func TestBuildBelowTarget(t *testing.T) {
	g, f := testGraph(t)
	h, err := Build(context.Background(), g, f, Options{TargetNodes: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 1 {
		t.Fatalf("got %d levels for a graph already below TargetNodes", h.Levels())
	}
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = i % 2
	}
	out, k, err := h.ProjectToFinest(context.Background(), labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("identity projection changed k to %d", k)
	}
	for i := range labels {
		if out[i] != labels[i] {
			t.Fatal("identity projection changed labels")
		}
	}
}
