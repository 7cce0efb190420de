package cut

import (
	"fmt"
	"sort"

	"roadpart/internal/graph"
	"roadpart/internal/linalg"
)

// BoundaryRefineOptions tunes the frontier-local refinement used at each
// uncoarsening step of the multilevel path (docs/SCALING.md).
type BoundaryRefineOptions struct {
	// MaxPasses bounds the frontier sweeps. 0 selects 4.
	MaxPasses int
}

// RefineAlphaCutBoundary improves labels in place by Fiduccia–Mattheyses
// style local moves restricted to the partition frontier: only vertices
// with a neighbor in another partition are evaluated, and a successful
// move re-activates just the moved vertex's neighborhood for the next
// pass — on a projected labeling (where almost every vertex agrees with
// its neighbors) each pass touches a thin boundary band, not the whole
// graph. The move gain is the same α-Cut delta RefineAlphaCut computes
// (Equation 5 with the dynamic α), evaluated against incrementally
// maintained per-partition aggregates.
//
// Contract: labels must be a dense labeling in [0,k); the refinement is
// deterministic (vertices are visited in ascending id per pass, adjacent
// partitions considered in ascending id, strict-improvement moves only),
// never empties a partition, and never increases the α-Cut objective. It
// performs no connectivity repair — the multilevel path runs
// RepairConnectivity once, on the finest graph, after projection. The
// returned count is the number of moves performed.
func RefineAlphaCutBoundary(g *graph.Graph, labels []int, k int, opts BoundaryRefineOptions) (int, error) {
	n := g.N()
	if len(labels) != n {
		return 0, fmt.Errorf("cut: boundary refine: %d labels for %d nodes", len(labels), n)
	}
	if k < 1 {
		return 0, fmt.Errorf("cut: boundary refine: k=%d out of range", k)
	}
	used := make([]bool, k)
	for v, l := range labels {
		if l < 0 || l >= k {
			return 0, fmt.Errorf("cut: boundary refine: label %d at node %d out of range [0,%d)", l, v, k)
		}
		used[l] = true
	}
	for l, ok := range used {
		if !ok && n > 0 {
			return 0, fmt.Errorf("cut: boundary refine: partition %d is empty (labels must be dense in [0,%d))", l, k)
		}
	}
	passes := opts.MaxPasses
	if passes <= 0 {
		passes = 4
	}
	if k == 1 || n == 0 {
		return 0, nil
	}
	within, volume, sizes := partitionWeights(g, labels, k)
	total := 2 * g.TotalWeight()
	if total == 0 {
		return 0, nil
	}
	// Frontier worklists and scratch, all pooled (PR 4 discipline). seen
	// is epoch-stamped so the per-vertex adjacent-partition scan needs no
	// clearing between vertices.
	cur := linalg.GetInts(n)[:0]
	nxt := linalg.GetInts(n)[:0]
	inNext := linalg.GetInts(n)
	wTo := linalg.GetVec(k)
	seen := linalg.GetInts(k)
	defer func() {
		linalg.PutInts(cur)
		linalg.PutInts(nxt)
		linalg.PutInts(inNext)
		linalg.PutVec(wTo)
		linalg.PutInts(seen)
	}()
	parts := make([]int, 0, k)
	epoch := 0

	// Seed the frontier with every boundary vertex, in ascending order.
	for v := 0; v < n; v++ {
		for _, e := range g.Neighbors(v) {
			if labels[e.To] != labels[v] {
				cur = append(cur, v)
				break
			}
		}
	}

	moves := 0
	for pass := 1; pass <= passes && len(cur) > 0; pass++ {
		nxt = nxt[:0]
		improved := 0
		for _, v := range cur {
			a := labels[v]
			if sizes[a] <= 1 {
				continue
			}
			// Weighted degree of v and its weight into each adjacent
			// partition (ordered-pair convention: both directions).
			epoch++
			var dv float64
			parts = parts[:0]
			for _, e := range g.Neighbors(v) {
				dv += e.W
				b := labels[e.To]
				if seen[b] != epoch {
					seen[b] = epoch
					wTo[b] = 0
					parts = append(parts, b)
				}
				wTo[b] += e.W
			}
			sort.Ints(parts)
			var wA float64
			if seen[a] == epoch {
				wA = wTo[a]
			}
			base := partCost(volume[a], within[a], sizes[a], total)
			// Moving v out of a costs the same whichever partition it joins.
			leaveA := partCost(volume[a]-dv, within[a]-2*wA, sizes[a]-1, total)
			bestDelta := -1e-12 // strict improvement only
			bestB := -1
			for _, b := range parts {
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
				within[a] -= 2 * wA
				within[bestB] += 2 * wTo[bestB]
				sizes[a]--
				sizes[bestB]++
				labels[v] = bestB
				improved++
				moves++
				// Only the moved vertex's neighborhood can have gained a
				// profitable move — re-activate it for the next pass.
				if inNext[v] != pass {
					inNext[v] = pass
					nxt = append(nxt, v)
				}
				for _, e := range g.Neighbors(v) {
					if inNext[e.To] != pass {
						inNext[e.To] = pass
						nxt = append(nxt, e.To)
					}
				}
			}
		}
		if improved == 0 {
			break
		}
		sort.Ints(nxt)
		cur, nxt = nxt, cur
	}
	return moves, nil
}
