// Package coarsen implements the contraction side of the multilevel
// partitioning path (docs/SCALING.md): deterministic heavy-edge matching
// builds a hierarchy of successively smaller graphs with density-weighted
// vertex and edge aggregation, the spectral α-Cut core solves on the
// coarsest level, and ProjectToFinest maps the labels back down through
// every level, refining the partition boundaries at each step.
//
// Contraction invariants (asserted by the package tests):
//   - node counts strictly decrease level to level, by at least
//     minShrink per round (the stall guard ends contraction otherwise);
//   - vertex weights are conserved: every level's weights sum to the
//     finest node count;
//   - cross-partition edge weight is conserved: a coarse edge carries the
//     summed weight of every fine edge between its two clusters, and only
//     intra-cluster (contracted) weight is dropped;
//   - matched pairs are always adjacent in their level's graph;
//   - connected components are preserved, so a k-way partition feasible on
//     the finest graph stays feasible on every coarser one;
//   - the whole hierarchy is a pure function of (graph, features,
//     Options.Seed) — repeated Builds are identical.
package coarsen

import (
	"context"
	"fmt"
	"sort"

	"roadpart/internal/cut"
	"roadpart/internal/graph"
	"roadpart/internal/linalg"
	"roadpart/internal/obs"
)

// Multilevel pipeline observability: stage timers for the three phases
// (project/refine run inside the spectral_cut stage, once per
// uncoarsening step) and counters for level/contraction/move totals.
var (
	stageCoarsen = obs.StageTimer("coarsen")
	stageProject = obs.StageTimer("project")
	stageRefine  = obs.StageTimer("refine")

	mlHelp        = "Multilevel coarsening pipeline event totals by kind."
	ctrLevels     = obs.Default().Counter("roadpart_multilevel_total", mlHelp, "event", "levels")
	ctrContracted = obs.Default().Counter("roadpart_multilevel_total", mlHelp, "event", "contracted")
	ctrMoves      = obs.Default().Counter("roadpart_multilevel_total", mlHelp, "event", "refine_moves")
)

// Fixed contraction and refinement limits (docs/TUNING.md § Multilevel
// & scale).
const (
	// maxLevels caps the number of contraction rounds.
	maxLevels = 24
	// minShrink is the stall guard: a round must shrink the node count by
	// at least this fraction or contraction stops (heavy-edge matching
	// finds almost no pairs on degenerate graphs).
	minShrink = 0.05
	// refinePasses bounds the refinement passes per uncoarsening step.
	refinePasses = 4
)

// Options tunes hierarchy construction. The zero value selects the
// defaults documented per field.
type Options struct {
	// TargetNodes is the spectral core's comfort zone: contraction stops
	// once a level has at most this many nodes. 0 selects 2048.
	TargetNodes int
	// Seed drives the matching visit order; the hierarchy is a pure
	// function of (graph, features, Seed).
	Seed int64
}

// Hierarchy is a contraction hierarchy, finest level first. It
// implements cut.Level: Graph returns the coarsest graph for the
// spectral core to factor, and ProjectToFinest maps coarse labels back
// to the finest graph, refining at each step.
var _ cut.Level = (*Hierarchy)(nil)

type Hierarchy struct {
	graphs  []*graph.Graph // graphs[0] is the finest (input) graph
	feats   [][]float64    // aggregated density feature per node; nil throughout when none supplied
	weights [][]float64    // aggregated fine-vertex count per node
	maps    [][]int        // maps[i][v] = node of graphs[i+1] that absorbed v
}

// Build constructs the hierarchy for g, contracting until the coarsest
// level fits Options.TargetNodes (or a round stalls). f is the per-node
// density feature aggregated through the levels as a weighted mean; it
// may be nil. Build observes ctx between levels and returns its error
// unwrapped when cancelled mid-coarsening.
func Build(ctx context.Context, g *graph.Graph, f []float64, opts Options) (*Hierarchy, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("coarsen: empty graph")
	}
	if f != nil && len(f) != g.N() {
		return nil, fmt.Errorf("coarsen: %d features for %d nodes", len(f), g.N())
	}
	if opts.TargetNodes <= 0 {
		opts.TargetNodes = 2048
	}
	sp := stageCoarsen.Start()
	defer sp.End()

	w := make([]float64, g.N())
	for i := range w {
		w[i] = 1
	}
	h := &Hierarchy{
		graphs:  []*graph.Graph{g},
		feats:   [][]float64{f},
		weights: [][]float64{w},
	}
	for len(h.maps) < maxLevels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := h.graphs[len(h.graphs)-1]
		if cur.N() <= opts.TargetNodes {
			break
		}
		cid, nc := matchLevel(cur, opts.Seed, len(h.maps))
		if float64(nc) > float64(cur.N())*(1-minShrink) {
			break // stall guard
		}
		cg, cf, cw, err := contract(cur, h.feats[len(h.feats)-1], h.weights[len(h.weights)-1], cid, nc)
		if err != nil {
			return nil, err
		}
		h.maps = append(h.maps, cid)
		h.graphs = append(h.graphs, cg)
		h.feats = append(h.feats, cf)
		h.weights = append(h.weights, cw)
		ctrLevels.Inc()
		ctrContracted.Add(uint64(cur.N() - nc))
	}
	return h, nil
}

// Levels returns the number of levels in the hierarchy (1 when no
// contraction happened).
func (h *Hierarchy) Levels() int { return len(h.graphs) }

// Graph returns the coarsest graph — the one the spectral core factors
// (cut.Level).
func (h *Hierarchy) Graph() *graph.Graph { return h.graphs[len(h.graphs)-1] }

// ProjectToFinest maps a labeling of the coarsest graph down to the
// finest one (cut.Level). At each uncoarsening step every fine node
// inherits its coarse cluster's label, then up to refinePasses passes of
// cut.RefineMoves re-evaluate every boundary vertex against that level's
// graph. Every coarse cluster is non-empty, projection is surjective and
// refinement never empties a partition, so k is preserved exactly. The projection is deterministic;
// ctx is observed once per level.
func (h *Hierarchy) ProjectToFinest(ctx context.Context, labels []int, k int) ([]int, int, error) {
	if len(labels) != h.Graph().N() {
		return nil, 0, fmt.Errorf("coarsen: %d labels for coarsest level of %d nodes", len(labels), h.Graph().N())
	}
	cur := labels
	for i := len(h.graphs) - 2; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		fineG := h.graphs[i]
		cid := h.maps[i]
		sp := stageProject.Start()
		fine := make([]int, fineG.N())
		for v := range fine {
			fine[v] = cur[cid[v]]
		}
		sp.End()
		spr := stageRefine.Start()
		moves, err := cut.RefineMoves(fineG, fine, k, refinePasses)
		spr.End()
		if err != nil {
			return nil, 0, err
		}
		ctrMoves.Add(uint64(moves))
		cur = fine
	}
	return cur, k, nil
}

// matchLevel computes one round of heavy-edge matching on g and returns
// the fine→coarse cluster map plus the coarse node count. Unmatched
// vertices carry over as singleton clusters. The visit order is a
// seed-and-level-keyed permutation; within a visit the heaviest
// unmatched neighbor wins, ties broken toward the smallest index, so the
// matching is deterministic.
func matchLevel(g *graph.Graph, seed int64, level int) ([]int, int) {
	n := g.N()
	mate := linalg.GetInts(n)
	perm := linalg.GetInts(n)
	acc := linalg.GetVec(n)
	stamp := linalg.GetInts(n)
	defer func() {
		linalg.PutInts(mate)
		linalg.PutInts(perm)
		linalg.PutVec(acc)
		linalg.PutInts(stamp)
	}()
	for i := range mate {
		mate[i] = -1
	}
	// Seed-keyed Fisher–Yates visit order, mixed per level so successive
	// rounds do not replay the same order.
	rng := linalg.RNGFromState(uint64(seed)*linalg.RNGIncrement + uint64(level))
	rng.PermInto(perm)

	var nbrs []int
	for _, u := range perm {
		if mate[u] >= 0 {
			continue
		}
		// Accumulate parallel-edge weight per unmatched neighbor.
		nbrs = nbrs[:0]
		for _, e := range g.Neighbors(u) {
			v := e.To
			if v == u || mate[v] >= 0 {
				continue
			}
			if stamp[v] != u+1 {
				stamp[v] = u + 1
				acc[v] = 0
				nbrs = append(nbrs, v)
			}
			acc[v] += e.W
		}
		best := -1
		var bestW float64
		for _, v := range nbrs {
			if best < 0 || acc[v] > bestW || (acc[v] == bestW && v < best) {
				best, bestW = v, acc[v]
			}
		}
		if best >= 0 {
			mate[u], mate[best] = best, u
		} else {
			mate[u] = u
		}
	}

	// Coarse ids in ascending fine-id order: scan order, not match order,
	// decides numbering, so the ids are independent of the permutation.
	cid := make([]int, n)
	for i := range cid {
		cid[i] = -1
	}
	nc := 0
	for u := 0; u < n; u++ {
		if cid[u] >= 0 {
			continue
		}
		cid[u] = nc
		if m := mate[u]; m != u && cid[m] < 0 {
			cid[m] = nc
		}
		nc++
	}
	return cid, nc
}

// contract builds the coarse graph plus aggregated features and vertex
// weights for one cluster map. Edge weights between two clusters are the
// sums over all fine edges between them (parallel fine edges included);
// intra-cluster edges contract away (graph.Graph holds no self-loops).
// Features aggregate as the vertex-weight-weighted mean — the coarse
// density is the mean density of the fine vertices it represents, which
// keeps the α-Cut similarity scale intact across levels. The coarse
// adjacency is emitted in sorted neighbor order.
func contract(g *graph.Graph, feat, w []float64, cid []int, nc int) (*graph.Graph, []float64, []float64, error) {
	n := g.N()
	start := linalg.GetInts(nc + 1)
	members := linalg.GetInts(n)
	cursor := linalg.GetInts(nc)
	acc := linalg.GetVec(nc)
	stamp := linalg.GetInts(nc)
	defer func() {
		linalg.PutInts(start)
		linalg.PutInts(members)
		linalg.PutInts(cursor)
		linalg.PutVec(acc)
		linalg.PutInts(stamp)
	}()

	// Member buckets by counting sort.
	for _, c := range cid {
		start[c+1]++
	}
	for c := 1; c <= nc; c++ {
		start[c] += start[c-1]
	}
	copy(cursor, start[:nc])
	for u := 0; u < n; u++ {
		c := cid[u]
		members[cursor[c]] = u
		cursor[c]++
	}

	// Accumulate cross-cluster weight and emit each coarse edge once,
	// from its lower endpoint, in ascending neighbor order.
	b := graph.NewBuilder(nc)
	epoch := 0
	var nbrs []int
	for c := 0; c < nc; c++ {
		epoch++
		nbrs = nbrs[:0]
		for i := start[c]; i < start[c+1]; i++ {
			for _, e := range g.Neighbors(members[i]) {
				cc := cid[e.To]
				if cc == c {
					continue
				}
				if stamp[cc] != epoch {
					stamp[cc] = epoch
					acc[cc] = 0
					nbrs = append(nbrs, cc)
				}
				acc[cc] += e.W
			}
		}
		sort.Ints(nbrs)
		for _, cc := range nbrs {
			if cc > c {
				if err := b.AddEdge(c, cc, acc[cc]); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}

	cw := make([]float64, nc)
	var cf []float64
	if feat != nil {
		cf = make([]float64, nc)
	}
	for u := 0; u < n; u++ {
		c := cid[u]
		cw[c] += w[u]
		if feat != nil {
			cf[c] += w[u] * feat[u]
		}
	}
	if feat != nil {
		for c := range cf {
			cf[c] /= cw[c] // every cluster is non-empty, cw[c] >= 1
		}
	}
	return b.Build(), cf, cw, nil
}
