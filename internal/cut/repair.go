package cut

import (
	"fmt"
	"math"

	"roadpart/internal/graph"
	"roadpart/internal/obs"
)

// repairMerges records the merges each RepairConnectivity call made.
var repairMerges = obs.Default().Histogram("roadpart_repair_merges",
	"Piece merges each connectivity repair made to reach its target partition count.",
	[]float64{0, 1, 4, 16, 64, 256, 1024})

// RepairConnectivity enforces condition C.2 on an assignment: every
// partition label must induce a connected subgraph. Components beyond the
// target count k are merged — smallest first — into the spatially adjacent
// partition whose mean feature is closest, until exactly k connected
// partitions remain (or the graph's own component count, if larger, since
// disconnected graphs cannot do better). The returned labeling is dense in
// [0, K). Each call's merge count goes to roadpart_repair_merges.
//
// Both the framework (whose k′→k reduction can leave groups
// disconnected, often on large flat cuts) and the Ji–Geroliminis
// baseline (whose boundary adjustment moves nodes freely) use this as
// their final step.
func RepairConnectivity(g *graph.Graph, f []float64, assign []int, k int) ([]int, int, error) {
	if len(assign) != g.N() || len(f) != g.N() {
		return nil, 0, fmt.Errorf("cut: repair sizes differ: %d nodes, %d assignments, %d features", g.N(), len(assign), len(f))
	}
	if k < 1 {
		return nil, 0, fmt.Errorf("cut: repair target k=%d", k)
	}
	// Split every label into its connected components, numbered by their
	// lowest node.
	labels := make([]int, g.N())
	count := g.GroupComponentsInto(assign, labels, g.N()+1)

	// Every piece lies inside one component of the graph. A piece with no
	// neighbouring piece is a whole component and can never merge, so
	// closed marks it (allocated on the first; a connected graph has
	// none) and the merge goes to the smallest piece that has a
	// neighbour; the loop stops when none has one.
	size, sum := make([]int, count), make([]float64, count)
	var closed []bool
	pieces := count
	for count > k {
		// Component stats.
		size, sum = size[:count], sum[:count]
		clear(size)
		clear(sum)
		for v, l := range labels {
			size[l]++
			sum[l] += f[v]
		}
		var smallest int
		best := -1
		for best < 0 {
			// Smallest piece not closed, ties to the lowest number.
			smallest = -1
			for l := range count {
				if (closed == nil || !closed[l]) && (smallest < 0 || size[l] < size[smallest]) {
					smallest = l
				}
			}
			if smallest < 0 {
				break
			}
			if best = closestNeighbour(g, labels, size, sum, smallest); best < 0 {
				if closed == nil {
					closed = make([]bool, count)
				}
				closed[smallest] = true
			}
		}
		if best < 0 {
			break // every piece is a component of the graph itself
		}
		// Two adjacent connected pieces merge into one connected piece,
		// whose lowest node is the lower number's. Renumbering it so and
		// closing the gap is the numbering a fresh GroupComponentsInto
		// would give, without the search.
		keep, drop := min(smallest, best), max(smallest, best)
		for v, l := range labels {
			if l == drop {
				labels[v] = keep
			} else if l > drop {
				labels[v] = l - 1
			}
		}
		if closed != nil {
			closed = append(closed[:drop], closed[drop+1:]...)
		}
		count--
	}
	repairMerges.Observe(float64(pieces - count))
	dense, kk := renumber(labels)
	return dense, kk, nil
}

// closestNeighbour returns the piece adjacent to piece s whose mean
// feature is closest to s's (the first such in node and edge order on a
// tie), or -1 when no other piece touches s.
func closestNeighbour(g *graph.Graph, labels, size []int, sum []float64, s int) int {
	muS := sum[s] / float64(size[s])
	best, bestD := -1, math.Inf(1)
	for v, l := range labels {
		if l != s {
			continue
		}
		for _, e := range g.Neighbors(v) {
			t := labels[e.To]
			if t == s {
				continue
			}
			d := math.Abs(sum[t]/float64(size[t]) - muS)
			if d < bestD {
				best, bestD = t, d
			}
		}
	}
	return best
}
