// Package cut implements the paper's novel k-way α-Cut (Section 5), its
// spectral relaxation (Algorithm 3), the normalized-cut baseline it is
// evaluated against, and the cut-value/modularity diagnostics used in the
// empirical study.
package cut

import (
	"fmt"

	"roadpart/internal/eigen"
	"roadpart/internal/graph"
	"roadpart/internal/linalg"
)

// AlphaCutOp is the α-Cut matrix M = (d·dᵀ)/s − A of Equation 6 presented
// as a matrix-free operator: d is the weighted degree vector of the
// (super)graph, s = 1ᵀD1 the total degree, and A its weighted adjacency.
// It is a thin wrapper around eigen.RankOneOp (U = d, S = s, zero
// diagonal; docs/NUMERICS.md § The sparse-plus-rank-one matvec), so one
// product costs O(nnz + n) and M is never materialized — which is what
// makes the partitioning stage scale to the large-network supergraphs.
//
// M equals the negative of Newman's modularity matrix (Section 7), so
// minimizing α-Cut approximately maximizes modularity.
type AlphaCutOp struct {
	eigen.RankOneOp
}

// NewAlphaCutOp wraps the symmetric weighted adjacency matrix adj.
func NewAlphaCutOp(adj *linalg.CSR) (*AlphaCutOp, error) {
	d := adj.RowSums()
	ro, err := eigen.NewRankOneOp(adj, nil, d, linalg.Sum(d))
	if err != nil {
		return nil, fmt.Errorf("cut: %w", err)
	}
	return &AlphaCutOp{RankOneOp: *ro}, nil
}

// ScalarAlphaOp is the α-Cut matrix for a *constant* balance factor α
// instead of the paper's dynamic vector α_i = W(P_i,V)/W(V,V): substituting
// a scalar α into Equation 5 gives Σ_i c_iᵀ(αD − A)c_i / |P_i|, so the
// matrix is simply αD − A — an eigen.RankOneOp with precomputed diagonal
// α·d and no rank-one term. Kept for the ablation comparing the dynamic α
// against fixed balances.
type ScalarAlphaOp struct {
	eigen.RankOneOp
	Alpha float64
}

// NewScalarAlphaOp wraps the adjacency matrix with a fixed α ∈ [0,1].
func NewScalarAlphaOp(adj *linalg.CSR, alpha float64) (*ScalarAlphaOp, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("cut: alpha %v outside [0,1]", alpha)
	}
	diag := adj.RowSums()
	for i, d := range diag {
		diag[i] = alpha * d
	}
	ro, err := eigen.NewRankOneOp(adj, diag, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("cut: %w", err)
	}
	return &ScalarAlphaOp{RankOneOp: *ro, Alpha: alpha}, nil
}

// partitionWeights accumulates W(P_i, P_i) and W(P_i, V) for every
// partition of the labeling over g; volumes are in "sum over ordered node
// pairs" form, i.e. W(P_i,P_i) counts each internal edge twice and
// W(P_i,V) is the total weighted degree of the partition, matching the
// matrix forms c_iᵀA c_i and 1ᵀD c_i of Equation 6.
func partitionWeights(g *graph.Graph, assign []int, k int) (within, volume []float64, sizes []int) {
	within = make([]float64, k)
	volume = make([]float64, k)
	sizes = make([]int, k)
	for u := 0; u < g.N(); u++ {
		pu := assign[u]
		sizes[pu]++
		for _, e := range g.Neighbors(u) {
			volume[pu] += e.W
			if assign[e.To] == pu {
				within[pu] += e.W
			}
		}
	}
	return within, volume, sizes
}

// partCost is one partition's term of the α-Cut objective (Equation 5
// with the dynamic α), (W(P,V)²/W(V,V) − W(P,P))/|P|, from its volume,
// internal weight and size; total is W(V,V) and an empty partition
// costs 0. Both refiners price a trial move from the candidate
// aggregates it would produce, so the shared ones change only when a
// move is taken.
func partCost(vol, in float64, size int, total float64) float64 {
	if size == 0 {
		return 0
	}
	return (vol*vol/total - in) / float64(size)
}

// AlphaCutValue evaluates the α-Cut objective of Equation 5 for the given
// partition assignment over g, with the paper's dynamic
// α_i = W(P_i, V)/W(V, V). Lower is better. It returns an error if the
// assignment is malformed.
func AlphaCutValue(g *graph.Graph, assign []int) (float64, error) {
	k, err := validateAssign(g, assign)
	if err != nil {
		return 0, err
	}
	within, volume, sizes := partitionWeights(g, assign, k)
	total := 2 * g.TotalWeight() // W(V,V) over ordered pairs
	if total == 0 {
		return 0, nil
	}
	var val float64
	for i := 0; i < k; i++ {
		// α_i·cut/|P_i| − (1−α_i)·assoc/|P_i| simplified per Section 5.3.
		val += partCost(volume[i], within[i], sizes[i], total)
	}
	return val, nil
}

// Modularity returns Newman's weighted modularity
// Q = Σ_i (W(P_i,P_i) − W(P_i,V)²/W(V,V)) / W(V,V) for the assignment.
// Higher is better; included because minimizing α-Cut approximately
// maximizes Q (the matrices are negatives of each other).
func Modularity(g *graph.Graph, assign []int) (float64, error) {
	k, err := validateAssign(g, assign)
	if err != nil {
		return 0, err
	}
	within, volume, _ := partitionWeights(g, assign, k)
	total := 2 * g.TotalWeight()
	if total == 0 {
		return 0, nil
	}
	var q float64
	for i := 0; i < k; i++ {
		q += within[i]/total - (volume[i]/total)*(volume[i]/total)
	}
	return q, nil
}

// NCutValue evaluates the normalized-cut objective
// Σ_i W(P_i, ~P_i)/W(P_i, V). Lower is better. Partitions with zero
// volume contribute nothing.
func NCutValue(g *graph.Graph, assign []int) (float64, error) {
	k, err := validateAssign(g, assign)
	if err != nil {
		return 0, err
	}
	within, volume, _ := partitionWeights(g, assign, k)
	var val float64
	for i := 0; i < k; i++ {
		if volume[i] == 0 {
			continue
		}
		val += (volume[i] - within[i]) / volume[i]
	}
	return val, nil
}

// validateAssign checks the labeling covers g with ids in [0, k) and
// returns k = max id + 1.
func validateAssign(g *graph.Graph, assign []int) (int, error) {
	if len(assign) != g.N() {
		return 0, fmt.Errorf("cut: assignment length %d != %d nodes", len(assign), g.N())
	}
	k := 0
	for i, a := range assign {
		if a < 0 {
			return 0, fmt.Errorf("cut: negative partition id at node %d", i)
		}
		if a+1 > k {
			k = a + 1
		}
	}
	if k == 0 {
		return 0, fmt.Errorf("cut: empty assignment")
	}
	return k, nil
}

// interface checks
var (
	_ eigen.Op = (*AlphaCutOp)(nil)
	_ eigen.Op = (*ScalarAlphaOp)(nil)
)
