// Package metrics implements the paper's four evaluation measures
// (Section 6.2) over density space, plus partition validation against
// conditions C.1–C.2 of the problem definition:
//
//   - Inter: average over spatially adjacent partition pairs of the mean
//     absolute density distance between their nodes. Higher is better
//     (inter-partition heterogeneity, condition C.3).
//   - Intra: average over partitions of the mean absolute pairwise density
//     distance inside. Lower is better (homogeneity, condition C.4).
//   - GDBI: the graph Davies–Bouldin index — classic DBI with the
//     comparison restricted to spatially adjacent partitions. Lower is
//     better.
//   - ANS: average NcutSilhouette (introduced by Ji & Geroliminis [5]):
//     per partition, the ratio of its mean within-partition dissimilarity
//     to its mean dissimilarity against spatially adjacent partitions,
//     averaged over partitions. Lower is better, and its minimum over k
//     selects the optimal partition count.
//
// All pairwise-mean computations run in O(n log n) using sorted prefix
// sums, so the metrics are usable on the largest networks.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"roadpart/internal/graph"
)

// Report bundles all four measures for one partitioning.
type Report struct {
	K     int
	Inter float64
	Intra float64
	GDBI  float64
	ANS   float64
}

// nsCap bounds a single node's NcutSilhouette ratio so that degenerate
// partitions (zero dissimilarity to a neighbor) cannot dominate the
// average; values at the cap only occur for pathological partitionings.
const nsCap = 10

// Evaluate computes all four measures for the assignment over graph g with
// node features f (densities). It returns an error for malformed input.
func Evaluate(f []float64, assign []int, g *graph.Graph) (Report, error) {
	k, err := checkInput(f, assign, g)
	if err != nil {
		return Report{}, err
	}
	sp := sortedParts(f, assign, k)
	// The partition adjacency graph: its rows list each partition's
	// spatially adjacent partitions once, in ascending order, so every
	// later summation accumulates in a fixed order and the metrics stay
	// bit-for-bit reproducible.
	adj, err := g.Quotient(assign, k, func(int, int, float64) float64 { return 1 })
	if err != nil {
		return Report{}, err
	}

	rep := Report{K: k}
	rep.Inter = inter(sp, adj)
	rep.Intra = intra(sp)
	rep.GDBI = gdbi(sp, adj)
	rep.ANS = ans(sp, adj)
	return rep, nil
}

// ANS computes only the average NcutSilhouette.
func ANS(f []float64, assign []int, g *graph.Graph) (float64, error) {
	rep, err := Evaluate(f, assign, g)
	return rep.ANS, err
}

// ValidatePartition verifies conditions C.1 and C.2: labels form a dense
// non-empty cover of the node set and every partition is connected in g.
// A dense labeling into k partitions satisfies C.2 exactly when it has k
// connected pieces.
func ValidatePartition(g *graph.Graph, assign []int) error {
	if len(assign) != g.N() {
		return fmt.Errorf("metrics: assignment length %d != %d nodes", len(assign), g.N())
	}
	k, err := partitionCount(assign)
	if err != nil {
		return err
	}
	comp, count := g.GroupComponents(assign)
	// first[p] is the piece holding partition p's lowest node.
	first := make([]int, k)
	for p := range first {
		first[p] = -1
	}
	for v, a := range assign {
		if first[a] < 0 {
			first[a] = comp[v]
		}
	}
	for p, c := range first {
		if c < 0 {
			return fmt.Errorf("metrics: partition %d is empty (labels not dense)", p)
		}
	}
	if count > k {
		for v, a := range assign {
			if comp[v] != first[a] {
				return fmt.Errorf("metrics: partition %d is not connected (condition C.2)", a)
			}
		}
	}
	return nil
}

// ---- internals ----

func checkInput(f []float64, assign []int, g *graph.Graph) (int, error) {
	if g.N() != len(assign) || len(f) != len(assign) {
		return 0, fmt.Errorf("metrics: sizes differ: %d nodes, %d assignments, %d features", g.N(), len(assign), len(f))
	}
	if len(assign) == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	return partitionCount(assign)
}

// partitionCount returns the partition count k of a labeling, one more
// than its largest label, or an error for a negative label.
func partitionCount(assign []int) (int, error) {
	k := 0
	for i, a := range assign {
		if a < 0 {
			return 0, fmt.Errorf("metrics: node %d has negative partition", i)
		}
		k = max(k, a+1)
	}
	return k, nil
}

// sortedPart holds one partition's features sorted with prefix sums, the
// substrate for O(log n) mean-absolute-distance queries.
type sortedPart struct {
	vals   []float64 // ascending
	prefix []float64 // prefix[i] = sum of vals[:i]
	mean   float64
}

// sortedParts builds every partition's sortedPart in one counting pass:
// partition p's values occupy one span of a shared array, gathered in
// node order and then sorted, and its prefix sums one span of a second
// shared array, so the whole set costs a fixed handful of allocations
// whatever k is.
func sortedParts(f []float64, assign []int, k int) []sortedPart {
	start := make([]int, k+1)
	for _, a := range assign {
		start[a+1]++
	}
	for p := 0; p < k; p++ {
		start[p+1] += start[p]
	}
	fill := append([]int(nil), start[:k]...)
	vals := make([]float64, len(assign))
	for v, a := range assign {
		vals[fill[a]] = f[v]
		fill[a]++
	}
	prefix := make([]float64, len(assign)+k) // one leading 0 per partition
	sp := make([]sortedPart, k)
	for p := range sp {
		pv := vals[start[p]:start[p+1]]
		sort.Float64s(pv)
		pp := prefix[start[p]+p : start[p+1]+p+1]
		for i, v := range pv {
			pp[i+1] = pp[i] + v
		}
		var mean float64
		if len(pv) > 0 {
			mean = pp[len(pv)] / float64(len(pv))
		}
		sp[p] = sortedPart{vals: pv, prefix: pp, mean: mean}
	}
	return sp
}

// sumAbsTo returns Σ_u |vals[u] − x|.
func (p *sortedPart) sumAbsTo(x float64) float64 {
	m := len(p.vals)
	i := sort.SearchFloat64s(p.vals, x)
	below := x*float64(i) - p.prefix[i]
	above := (p.prefix[m] - p.prefix[i]) - x*float64(m-i)
	return below + above
}

// meanAbsTo returns the mean |vals[u] − x| over the partition.
func (p *sortedPart) meanAbsTo(x float64) float64 {
	if len(p.vals) == 0 {
		return 0
	}
	return p.sumAbsTo(x) / float64(len(p.vals))
}

// meanPairwise returns the mean |a−b| over unordered pairs inside the
// partition (0 for fewer than 2 members), via the sorted identity
// Σ_{i<j}(v_j − v_i) = Σ_j (2j − m + 1)·v_j.
func (p *sortedPart) meanPairwise() float64 {
	m := len(p.vals)
	if m < 2 {
		return 0
	}
	var s float64
	for j, v := range p.vals {
		s += float64(2*j-m+1) * v
	}
	return s / (float64(m) * float64(m-1) / 2)
}

// meanCross returns the mean |a−b| over pairs with a in p and b in q.
func meanCross(p, q *sortedPart) float64 {
	if len(p.vals) == 0 || len(q.vals) == 0 {
		return 0
	}
	// Iterate the smaller side for O(min·log max).
	if len(p.vals) > len(q.vals) {
		p, q = q, p
	}
	var s float64
	for _, v := range p.vals {
		s += q.sumAbsTo(v)
	}
	return s / (float64(len(p.vals)) * float64(len(q.vals)))
}

// inter is the footnote-3 measure: the average InterDist over adjacent
// partition pairs.
func inter(sp []sortedPart, adj *graph.Graph) float64 {
	var total float64
	pairs := 0
	for i := range sp {
		for _, e := range adj.Neighbors(i) {
			if j := e.To; j > i {
				total += meanCross(&sp[i], &sp[j])
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// intra is the footnote-4 measure: the average within-partition mean
// pairwise distance.
func intra(sp []sortedPart) float64 {
	if len(sp) == 0 {
		return 0
	}
	var total float64
	for i := range sp {
		total += sp[i].meanPairwise()
	}
	return total / float64(len(sp))
}

// gdbi is the footnote-5 measure: per partition, the worst
// (S_i + S_j)/d(μ_i, μ_j) over spatially adjacent partitions, averaged.
// S is the mean absolute distance of members from the partition mean.
func gdbi(sp []sortedPart, adj *graph.Graph) float64 {
	k := len(sp)
	if k == 0 {
		return 0
	}
	scatter := make([]float64, k)
	for i := range sp {
		scatter[i] = sp[i].meanAbsTo(sp[i].mean)
	}
	var total float64
	counted := 0
	for i := range sp {
		worst := 0.0
		seen := false
		for _, e := range adj.Neighbors(i) {
			j := e.To
			d := math.Abs(sp[i].mean - sp[j].mean)
			r := float64(nsCap)
			if d > 0 {
				r = math.Min(nsCap, (scatter[i]+scatter[j])/d)
			} else if scatter[i]+scatter[j] == 0 {
				r = 0 // identical degenerate partitions
			}
			if r > worst {
				worst = r
			}
			seen = true
		}
		if seen {
			total += worst
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// ans is the average NcutSilhouette, the partition-level silhouette ratio
// of [5]: for each partition i with spatially adjacent partitions, NS_i is
// its mean within-partition dissimilarity divided by its mean
// dissimilarity against adjacent partitions; ANS is the average NS over
// such partitions. A coherent partition scores well below 1; as k grows
// past the natural region count, adjacent partitions become similar, the
// denominator collapses and ANS rises again — which is why its minimum
// over k selects the optimal partition count. Ratios are capped and 0/0
// (no contrast either way) counts as 1.
func ans(sp []sortedPart, adj *graph.Graph) float64 {
	var total float64
	counted := 0
	for i := range sp {
		if adj.Degree(i) == 0 {
			continue
		}
		av := sp[i].meanPairwise()
		var bv float64
		for _, e := range adj.Neighbors(i) {
			bv += meanCross(&sp[i], &sp[e.To])
		}
		bv /= float64(adj.Degree(i))
		var ns float64
		switch {
		case bv == 0 && av == 0:
			ns = 1
		case bv == 0:
			ns = nsCap
		default:
			ns = math.Min(nsCap, av/bv)
		}
		total += ns
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
