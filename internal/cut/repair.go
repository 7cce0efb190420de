package cut

import (
	"fmt"
	"math"

	"roadpart/internal/graph"
)

// RepairConnectivity enforces condition C.2 on an assignment: every
// partition label must induce a connected subgraph. Components beyond the
// target count k are merged — smallest first — into the spatially adjacent
// partition whose mean feature is closest, until exactly k connected
// partitions remain (or the graph's own component count, if larger, since
// disconnected graphs cannot do better). The returned labeling is dense in
// [0, K).
//
// Both the framework (whose recursive bipartitioning can in rare cases
// produce disconnected groups) and the Ji–Geroliminis baseline (whose
// boundary adjustment moves nodes freely) use this as their final step.
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
	count := g.GroupComponentsInto(assign, labels)

	// Every piece lies inside one component of the graph, so once the
	// pieces are the graph's own components the smallest has no
	// neighbouring piece and the merge search below stops the loop.
	size, sum := make([]int, count), make([]float64, count)
	for count > k {
		// Component stats.
		size, sum = size[:count], sum[:count]
		clear(size)
		clear(sum)
		for v, l := range labels {
			size[l]++
			sum[l] += f[v]
		}
		// Smallest component.
		smallest := 0
		for l := 1; l < count; l++ {
			if size[l] < size[smallest] {
				smallest = l
			}
		}
		// Adjacent component with the closest mean.
		muS := sum[smallest] / float64(size[smallest])
		best, bestD := -1, math.Inf(1)
		for v, l := range labels {
			if l != smallest {
				continue
			}
			for _, e := range g.Neighbors(v) {
				t := labels[e.To]
				if t == smallest {
					continue
				}
				d := math.Abs(sum[t]/float64(size[t]) - muS)
				if d < bestD {
					best, bestD = t, d
				}
			}
		}
		if best < 0 {
			break // a component of the graph itself; cannot merge
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
		count--
	}
	dense, kk := renumber(labels)
	return dense, kk, nil
}
