package cut

import (
	"fmt"
	"slices"

	"roadpart/internal/graph"
)

// RefineOptions tunes the local boundary refinement.
type RefineOptions struct {
	// MaxPasses bounds the sweeps over the node set. 0 selects 8.
	MaxPasses int
}

// RefineAlphaCut improves an existing partitioning by greedy local moves:
// each pass scans boundary nodes and relocates one to a spatially adjacent
// partition whenever the move strictly lowers the α-Cut objective
// (Equation 5 with the dynamic α). It is the α-Cut analogue of the
// boundary-adjustment step Ji & Geroliminis bolt onto normalized cut,
// offered as an optional post-processing extension.
//
// Moves never empty a partition; a final connectivity repair (which needs
// the feature vector f) restores condition C.2 and the partition count.
// It returns the refined labeling, its partition count, and the number of
// moves performed.
func RefineAlphaCut(g *graph.Graph, f []float64, assign []int, opts RefineOptions) ([]int, int, int, error) {
	k, err := validateAssign(g, assign)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(f) != g.N() {
		return nil, 0, 0, fmt.Errorf("cut: refine: %d features for %d nodes", len(f), g.N())
	}
	passes := opts.MaxPasses
	if passes <= 0 {
		passes = 8
	}

	labels := make([]int, len(assign))
	copy(labels, assign)
	within, volume, sizes := partitionWeights(g, labels, k)
	total := 2 * g.TotalWeight()
	if total == 0 {
		return labels, k, 0, nil
	}

	// wTo[b] is the current node's weight into partition b; adj lists the
	// partitions it touches, in ascending id once sorted, so ties between
	// equally good targets go to the lowest id.
	wTo := make([]float64, k)
	var adj []int
	moves := 0
	for pass := 0; pass < passes; pass++ {
		improved := 0
		for v := 0; v < g.N(); v++ {
			a := labels[v]
			if sizes[a] <= 1 {
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

	out, kk, err := RepairConnectivity(g, f, labels, k)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, kk, moves, nil
}
