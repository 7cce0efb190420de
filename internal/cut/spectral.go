package cut

import (
	"context"
	"fmt"
	"sort"

	"roadpart/internal/eigen"
	"roadpart/internal/graph"
	"roadpart/internal/kmeans"
	"roadpart/internal/linalg"
)

// Method selects the graph cut driving the spectral partitioner.
type Method int

const (
	// MethodAlphaCut is the paper's α-Cut (Algorithm 3) with the dynamic
	// α_i = W(P_i,V)/W(V,V).
	MethodAlphaCut Method = iota
	// MethodNCut is the normalized-cut baseline (Shi–Malik).
	MethodNCut
	// MethodScalarAlpha is α-Cut with a constant balance factor
	// (Options.Alpha, default 0.5) — the ablation against the paper's
	// dynamic vector α.
	MethodScalarAlpha
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodAlphaCut:
		return "alpha-cut"
	case MethodNCut:
		return "normalized-cut"
	case MethodScalarAlpha:
		return "scalar-alpha-cut"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options tunes the spectral partitioner. The zero value selects defaults.
type Options struct {
	// Seed drives eigensolver start vectors and k-means.
	Seed uint64
	// Restarts is the best-of-n k-means restarts on the spectral
	// embedding. 0 selects 5; a restart count below 1 is meaningless, so
	// no sentinel exists (the zero value intentionally cannot mean "no
	// restarts").
	Restarts int
	// DenseCutoff is retained for configuration-fingerprint compatibility
	// (internal/resultcache hashes it) but no longer selects a solver:
	// the partitioner is always matrix-free through eigen.RankOneOp and
	// the Lanczos iteration — one Krylov chain plus restart rows
	// (docs/NUMERICS.md § The Lanczos variant). 0 still normalizes to
	// 900, so existing fingerprints keep their meaning.
	DenseCutoff int
	// Reduction selects how k′ > k partitions are brought down to k.
	Reduction Reduction
	// Alpha is the constant balance for MethodScalarAlpha; 0 selects 0.5.
	// The degenerate α=0 (no balance term at all) is intentionally not
	// expressible — it reduces the objective to a plain min-cut.
	Alpha float64
	// Workers bounds the goroutines of the Lanczos solve's team and of
	// the k-means restarts: 0 selects GOMAXPROCS, 1 forces serial. The
	// partition produced is identical for every worker count at the same
	// seed — this is purely a resource knob.
	Workers int
	// ColdWiden has no effect: every solve, a widening of the cached
	// decomposition included, starts cold from Seed (docs/NUMERICS.md
	// § Headroom). It is kept for callers that still set it and is not
	// part of the configuration fingerprint.
	ColdWiden bool
}

// Normalized returns o with every zero-value field replaced by its
// default — the options the partitioner will actually run with. Exposed
// so callers that fingerprint configurations (internal/resultcache via
// core.Config.Normalized) can canonicalize against the same source of
// truth the partitioner uses.
func (o Options) Normalized() Options { return o.normalized() }

// normalized returns o with every zero-value field replaced by its
// default. It is the single source of option defaults: NewSpectral and
// core.Config.Normalized both normalize through here, so the partitioner
// and the result fingerprint can never disagree on Restarts/DenseCutoff/
// Alpha.
func (o Options) normalized() Options {
	if o.Restarts == 0 {
		o.Restarts = 5
	}
	if o.DenseCutoff == 0 {
		o.DenseCutoff = 900
	}
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	return o
}

// kmeansOptions maps the partitioner options onto the embedding
// clustering step, shared by the top-level cut and every bipartition.
func (o Options) kmeansOptions() kmeans.NDOptions {
	return kmeans.NDOptions{Seed: o.Seed, Restarts: o.Restarts, Workers: o.Workers}
}

// Reduction selects the k′→k strategy of Section 5.4.
type Reduction int

const (
	// ReduceRecursiveBipartition is the paper's choice: build the k′×k′
	// partition-connectivity matrix and recursively bipartition it.
	ReduceRecursiveBipartition Reduction = iota
	// ReduceGreedyPruning iteratively merges the two most strongly
	// connected partitions — the alternative the paper describes and
	// rejects for large k′; kept for the ablation benchmarks. On a
	// disconnected graph it can stop above k (mutually disconnected
	// groups cannot merge).
	ReduceGreedyPruning
)

// Result of a spectral partitioning run.
type Result struct {
	// Assign is the partition id per graph node, dense in [0, K).
	Assign []int
	// K is the number of partitions in Assign.
	K int
	// KPrime is the number of disjoint connected partitions that existed
	// after spectral clustering and component extraction, before the
	// reduction to k (k′ of Section 5.4).
	KPrime int
}

// embedRows fills eb with the row-normalized spectral embedding Z
// (Alg. 3 lines 1–8, Equation 8): n rows holding the first k columns of
// dec's eigenvectors, each scaled to unit length. The caller returns eb to
// the pool once the embedding has been consumed.
func embedRows(dec *eigen.Decomposition, k int, eb *embedBuf) [][]float64 {
	cols := len(dec.Values)
	rows := eb.shape(dec.N, k)
	for i := range rows {
		copy(rows[i], dec.Vectors[i*cols:i*cols+k])
		linalg.Normalize(rows[i])
	}
	return rows
}

// reduce implements global recursive bipartitioning (Alg. 3 lines 12–24):
// the k′ partitions become nodes of a connectivity meta-graph with weights
// A′(i,j) = sqrt(Σ w² / numadj) over the cross-partition edges, which is
// recursively bipartitioned FIFO until k groups remain; each group's
// partitions merge.
func reduce(ctx context.Context, g *graph.Graph, labels []int, kPrime, k int, method Method, opts Options) ([]int, error) {
	meta, err := g.Quotient(labels, kPrime, func(_, _ int, w float64) float64 { return w })
	if err != nil {
		return nil, err
	}
	var groups [][]int
	switch opts.Reduction {
	case ReduceGreedyPruning:
		groups = greedyPrune(meta, k)
	default:
		groups, err = recursiveBipartition(ctx, meta, k, method, opts)
		if err != nil {
			return nil, err
		}
	}
	groupOf := make([]int, kPrime)
	for gi, members := range groups {
		for _, m := range members {
			groupOf[m] = gi
		}
	}
	out := make([]int, len(labels))
	for v, l := range labels {
		out[v] = groupOf[l]
	}
	return out, nil
}

// recursiveBipartition splits the meta-graph's node set into k groups by
// FIFO bipartitioning, as the paper's queue-based loop does.
func recursiveBipartition(ctx context.Context, meta *graph.Graph, k int, method Method, opts Options) ([][]int, error) {
	all := make([]int, meta.N())
	for i := range all {
		all[i] = i
	}
	queue := [][]int{all}
	var done [][]int
	for len(queue)+len(done) < k {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cut: recursive bipartitioning interrupted: %w", err)
		}
		// Find the first splittable group, preserving FIFO order.
		idx := -1
		for i, grp := range queue {
			if len(grp) >= 2 {
				idx = i
				break
			}
		}
		if idx < 0 {
			break // nothing left to split; fewer than k groups is the best we can do
		}
		grp := queue[idx]
		queue = append(queue[:idx], queue[idx+1:]...)

		sub, orig, err := meta.Induced(grp)
		if err != nil {
			return nil, err
		}
		half, err := bipartition(ctx, sub, method, opts)
		if err != nil {
			return nil, err
		}
		var left, right []int
		for i, side := range half {
			if side == 0 {
				left = append(left, orig[i])
			} else {
				right = append(right, orig[i])
			}
		}
		queue = append(queue, left, right)
		// Move no-longer-splittable singletons out of the queue.
		var still [][]int
		for _, q := range queue {
			if len(q) == 1 {
				done = append(done, q)
			} else {
				still = append(still, q)
			}
		}
		queue = still
	}
	return append(done, queue...), nil
}

// bipartition splits a (small) graph into two non-empty halves using the
// spectral method with k=2, with deterministic fallbacks for degenerate
// embeddings.
func bipartition(ctx context.Context, g *graph.Graph, method Method, opts Options) ([]int, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("cut: cannot bipartition %d nodes", n)
	}
	if n == 2 {
		return []int{0, 1}, nil
	}
	// A lean two-pair solve: the meta-graphs and partitions split here are
	// small and never widened.
	dec, err := decompose(ctx, g, 2, method, opts)
	if err != nil {
		return nil, err
	}
	eb := getEmbedBuf()
	defer putEmbedBuf(eb) // the degenerate fallback below still reads rows
	rows := embedRows(dec, 2, eb)
	km, err := kmeans.NDCtx(ctx, rows, 2, opts.kmeansOptions())
	if err != nil {
		return nil, err
	}
	if km.Sizes[0] > 0 && km.Sizes[1] > 0 {
		return km.Assign, nil
	}
	// Degenerate embedding (all rows identical): split by the second
	// eigencoordinate's median order, else by index.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rows[idx[a]][1] < rows[idx[b]][1] })
	half := make([]int, n)
	for r := n / 2; r < n; r++ {
		half[idx[r]] = 1
	}
	return half, nil
}

// greedyPrune repeatedly merges the pair of groups with the strongest
// meta-connectivity until k groups remain — the paper's rejected
// alternative, kept for ablation.
func greedyPrune(meta *graph.Graph, k int) [][]int {
	groupOf := make([]int, meta.N())
	groups := make([][]int, meta.N())
	for i := range groups {
		groups[i] = []int{i}
		groupOf[i] = i
	}
	alive := meta.N()
	for alive > k {
		// Strongest connection between two distinct groups.
		bestA, bestB, bestW := -1, -1, -1.0
		for u := 0; u < meta.N(); u++ {
			for _, e := range meta.Neighbors(u) {
				a, b := groupOf[u], groupOf[e.To]
				if a == b {
					continue
				}
				if e.W > bestW {
					bestA, bestB, bestW = a, b, e.W
				}
			}
		}
		if bestA < 0 {
			break // remaining groups are mutually disconnected
		}
		groups[bestA] = append(groups[bestA], groups[bestB]...)
		for _, m := range groups[bestB] {
			groupOf[m] = bestA
		}
		groups[bestB] = nil
		alive--
	}
	var out [][]int
	for _, grp := range groups {
		if grp != nil {
			out = append(out, grp)
		}
	}
	return out
}

// grow splits the largest partitions until the count reaches k, keeping
// every partition connected (bipartition + component extraction). Needed
// when k-means leaves clusters empty so k′ < k.
func grow(ctx context.Context, g *graph.Graph, labels []int, kPrime, k int, method Method, opts Options) ([]int, error) {
	out := make([]int, len(labels))
	copy(out, labels)
	count := kPrime
	for count < k {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cut: partition growth interrupted: %w", err)
		}
		// Largest partition with at least 2 nodes; ties break to the
		// smallest label so the choice is deterministic.
		sizes := map[int][]int{}
		maxL := 0
		for v, l := range out {
			sizes[l] = append(sizes[l], v)
			if l > maxL {
				maxL = l
			}
		}
		target, best := -1, 1
		for l := 0; l <= maxL; l++ {
			if members, ok := sizes[l]; ok && len(members) > best {
				best, target = len(members), l
			}
		}
		if target < 0 {
			break // all singletons
		}
		members := sizes[target]
		sub, orig, err := g.Induced(members)
		if err != nil {
			return nil, err
		}
		half, err := bipartition(ctx, sub, method, opts)
		if err != nil {
			return nil, err
		}
		// Component extraction inside each half keeps C.2 intact.
		comp, nComp := sub.GroupComponents(half)
		if nComp < 2 {
			break // could not split further
		}
		next := maxLabel(out) + 1
		for i, c := range comp {
			if c == 0 {
				continue // component 0 keeps the old label
			}
			out[orig[i]] = next + c - 1
		}
		count += nComp - 1
	}
	if count > k {
		dense, kk := renumber(out)
		return reduce(ctx, g, dense, kk, k, method, opts)
	}
	return out, nil
}

func maxLabel(labels []int) int {
	m := 0
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}

// renumber maps labels to a dense range [0, K) in order of first
// appearance and returns the new labeling and K.
func renumber(labels []int) ([]int, int) {
	remap := map[int]int{}
	out := make([]int, len(labels))
	for i, l := range labels {
		id, ok := remap[l]
		if !ok {
			id = len(remap)
			remap[l] = id
		}
		out[i] = id
	}
	return out, len(remap)
}
