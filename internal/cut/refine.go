package cut

import (
	"fmt"
	"slices"

	"roadpart/internal/graph"
)

// RefineAlphaCut improves an existing partitioning by greedy local moves
// (RefineMoves, up to 8 passes) and then restores condition C.2 and the
// partition count with RepairConnectivity, which needs the feature
// vector f. It is the α-Cut analogue of the boundary-adjustment step Ji
// & Geroliminis bolt onto normalized cut, offered as an optional
// post-processing extension. assign may leave ids unused; the refined
// labeling is dense, except on a graph without edge weight, which is
// returned as given. It returns the refined labeling, its partition
// count, and the number of moves performed.
func RefineAlphaCut(g *graph.Graph, f []float64, assign []int) ([]int, int, int, error) {
	k, err := validateAssign(g, assign)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(f) != g.N() {
		return nil, 0, 0, fmt.Errorf("cut: refine: %d features for %d nodes", len(f), g.N())
	}
	if g.TotalWeight() == 0 {
		return slices.Clone(assign), k, 0, nil // no edge weight to move
	}
	// Rank the used ids densely in ascending order. Moves compare
	// adjacent partitions by id and repair numbers pieces by node, so
	// ranking changes neither.
	rank := make([]int, k)
	for _, a := range assign {
		rank[a] = 1
	}
	used := 0
	for l, u := range rank {
		rank[l] = used
		used += u
	}
	labels := make([]int, len(assign))
	for v, a := range assign {
		labels[v] = rank[a]
	}
	moves, err := RefineMoves(g, labels, used, 8)
	if err != nil {
		return nil, 0, 0, err
	}
	out, kk, err := RepairConnectivity(g, f, labels, k)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, kk, moves, nil
}

// RefineMoves improves labels in place by greedy local moves: each pass
// visits the nodes in ascending id and relocates a node with a
// neighbor in another partition to the adjacent partition that
// strictly lowers the α-Cut objective (Equation 5 with the dynamic α)
// the most, ties going to the lowest partition id. It stops after
// passes passes or the first pass without a move, and returns the
// number of moves.
//
// labels must be dense in [0,k). Moves never empty a partition, so k is
// kept, and never raise the objective. RefineMoves does no connectivity
// repair: RefineAlphaCut runs RepairConnectivity after it, and the
// multilevel path runs it once on the finest graph after projection.
func RefineMoves(g *graph.Graph, labels []int, k, passes int) (int, error) {
	n := g.N()
	if len(labels) != n {
		return 0, fmt.Errorf("cut: refine: %d labels for %d nodes", len(labels), n)
	}
	if k < 1 {
		return 0, fmt.Errorf("cut: refine: k=%d out of range", k)
	}
	used := make([]bool, k)
	for v, l := range labels {
		if l < 0 || l >= k {
			return 0, fmt.Errorf("cut: refine: label %d at node %d out of range [0,%d)", l, v, k)
		}
		used[l] = true
	}
	for l, ok := range used {
		if !ok && n > 0 {
			return 0, fmt.Errorf("cut: refine: partition %d is empty (labels must be dense in [0,%d))", l, k)
		}
	}
	within, volume, sizes := partitionWeights(g, labels, k)
	total := 2 * g.TotalWeight()
	if total == 0 {
		return 0, nil
	}

	// wTo[b] is the current node's weight into partition b; adj lists the
	// partitions it touches, in ascending id once sorted, so ties between
	// equally good targets go to the lowest id.
	wTo := make([]float64, k)
	var adj []int
	moves := 0
	for pass := 0; pass < passes; pass++ {
		improved := 0
		for v := 0; v < n; v++ {
			a := labels[v]
			if sizes[a] <= 1 || !onBoundary(g, labels, v) {
				continue
			}
			// Weighted degree of v and its weight into each adjacent
			// partition (ordered-pair convention: both directions).
			var dv float64
			for _, b := range adj {
				wTo[b] = 0
			}
			adj = adj[:0]
			for _, e := range g.Neighbors(v) {
				dv += e.W
				b := labels[e.To]
				if !slices.Contains(adj, b) {
					adj = append(adj, b)
				}
				wTo[b] += e.W
			}
			slices.Sort(adj)
			base := partCost(volume[a], within[a], sizes[a], total)
			// Moving v out of a costs the same whichever partition it joins.
			leaveA := partCost(volume[a]-dv, within[a]-2*wTo[a], sizes[a]-1, total)
			bestDelta := -1e-12 // strict improvement only
			bestB := -1
			for _, b := range adj {
				if b == a {
					continue
				}
				delta := leaveA + partCost(volume[b]+dv, within[b]+2*wTo[b], sizes[b]+1, total) -
					base - partCost(volume[b], within[b], sizes[b], total)
				if delta < bestDelta {
					bestDelta = delta
					bestB = b
				}
			}
			if bestB >= 0 {
				volume[a] -= dv
				volume[bestB] += dv
				within[a] -= 2 * wTo[a]
				within[bestB] += 2 * wTo[bestB]
				sizes[a]--
				sizes[bestB]++
				labels[v] = bestB
				improved++
			}
		}
		moves += improved
		if improved == 0 {
			break
		}
	}
	return moves, nil
}

// onBoundary reports whether v has a neighbor in another partition; no
// move can lower the objective for any other node.
func onBoundary(g *graph.Graph, labels []int, v int) bool {
	for _, e := range g.Neighbors(v) {
		if labels[e.To] != labels[v] {
			return true
		}
	}
	return false
}
