package cut

import (
	"context"
	"fmt"
	"sync"

	"roadpart/internal/eigen"
	"roadpart/internal/graph"
	"roadpart/internal/kmeans"
	"roadpart/internal/linalg"
	"roadpart/internal/obs"
)

// Cache accounting: every lookup that returns a decomposition reads it
// from the memo and counts a hit. A lookup that had to solve first also
// counts a miss, and one that found another call's solve running and
// queued for the solve token also counts a wait. The eigendecompose
// stage timer covers the solve itself.
var (
	specCacheHelp = "Spectral decomposition cache events by kind."
	specHits      = obs.Default().Counter("roadpart_spectral_cache_total", specCacheHelp, "result", "hit")
	specMisses    = obs.Default().Counter("roadpart_spectral_cache_total", specCacheHelp, "result", "miss")
	specWaits     = obs.Default().Counter("roadpart_spectral_cache_total", specCacheHelp, "result", "wait")
	stageEigen    = obs.StageTimer("eigendecompose")
	stageKMeans   = obs.StageTimer("embed_kmeans")
	stageReduce   = obs.StageTimer("k_reduce")
)

// Spectral partitions one fixed graph for many values of k, caching the
// eigendecomposition across calls. The paper's protocol sweeps k (2–20 or
// 2–25) to find the ANS minimum; recomputing the eigenproblem per k would
// dominate that sweep, while the decomposition only depends on the graph
// and the method.
//
// A Spectral is safe for concurrent use. It runs at most one eigensolve
// at a time: a call whose k the memo cannot serve takes the one solve
// token and solves outside mu, so mu is only ever held to read or swap
// the memo, and a call the memo can serve never waits on a solve.
// A solve that fails, a cancelled one included, stores nothing: the next
// token holder solves again under its own, still-live context, so a
// cancelled caller never poisons the cache for the others.
type Spectral struct {
	level  Level
	g      *graph.Graph // level.Graph(), cached — the graph the solver factors
	method Method
	opts   Options

	solve chan struct{} // the solve token: capacity 1, held while a solve runs

	mu  sync.Mutex
	dec *eigen.Decomposition // nil until first use; len(Values) grows as needed
}

// NewSpectral prepares a cached spectral partitioner for g. A fresh
// Spectral is also the single-k partitioner: its first call runs one cold
// solve of k+sweepHeadroom eigenpairs, so a caller that needs one k
// builds one and calls PartitionCtx once.
func NewSpectral(g *graph.Graph, method Method, opts Options) *Spectral {
	return NewSpectralLevel(Flat(g), method, opts)
}

// NewSpectralLevel prepares a cached spectral partitioner over an
// abstract graph level: the eigendecomposition, clustering and k-repair
// stages run on level.Graph() (for a multilevel hierarchy, the coarsest
// graph), and every result is mapped back to the finest graph through
// level.ProjectToFinest before it is returned (docs/SCALING.md).
// NewSpectral is the Flat special case.
func NewSpectralLevel(level Level, method Method, opts Options) *Spectral {
	return &Spectral{
		level:  level,
		g:      level.Graph(),
		method: method,
		opts:   opts.normalized(),
		solve:  make(chan struct{}, 1),
	}
}

// PartitionCtx splits the graph into k spatially connected partitions
// following Algorithm 3: embed nodes with the k smallest eigenvectors,
// row-normalize, cluster with k-means, extract connected components (k′
// partitions), then reduce k′ to k by global recursive bipartitioning (or
// grow toward k by splitting the largest partitions when k-means left
// clusters empty). The cached decomposition is reused when it already
// has at least k eigenpairs.
//
// ctx is observed between work items — Lanczos steps and k-means
// restarts inside the embedding, and each bipartition of the k′→k
// reduction — and a cancelled call never leaves the shared cache in a
// worse state than before it ran.
func (s *Spectral) PartitionCtx(ctx context.Context, k int) (*Result, error) {
	n := s.g.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("cut: k=%d out of range [1,%d]", k, n)
	}
	if k == 1 {
		fine, fineK, err := s.level.ProjectToFinest(ctx, make([]int, n), 1)
		if err != nil {
			return nil, err
		}
		return &Result{Assign: fine, K: fineK, KPrime: 1}, nil
	}
	dec, err := s.decomposition(ctx, k)
	if err != nil {
		return nil, err
	}
	eb := getEmbedBuf()
	rows := embedRows(dec, k, eb)
	sp := stageKMeans.Start()
	km, err := kmeans.NDCtx(ctx, rows, k, s.opts.kmeansOptions())
	sp.End()
	putEmbedBuf(eb) // the embedding is dead once clustered
	if err != nil {
		return nil, err
	}
	lbuf := linalg.GetInts(n)
	defer linalg.PutInts(lbuf)
	kPrime := s.g.GroupComponentsInto(km.Assign, lbuf, s.g.N()+1)
	labels := lbuf
	res := &Result{KPrime: kPrime}
	sp = stageReduce.Start()
	switch {
	case kPrime > k:
		labels, err = reduce(ctx, s.g, labels, kPrime, k, s.method, s.opts)
	case kPrime < k:
		labels, err = grow(ctx, s.g, labels, kPrime, k, s.method, s.opts)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Assign, res.K = renumber(labels)
	// Map the (possibly coarse) labeling down to the finest graph. For the
	// flat path this is the identity and the result above is returned
	// unchanged bit for bit.
	fine, fineK, err := s.level.ProjectToFinest(ctx, res.Assign, res.K)
	if err != nil {
		return nil, err
	}
	res.Assign, res.K = fine, fineK
	return res, nil
}

// WarmCtx ensures the cached decomposition holds at least k eigenpairs,
// computing it (once) if needed; ctx cancels the eigensolve. A sweep that
// warms to its largest k before fanning out guarantees every PartitionCtx
// call embeds against the same eigenpairs regardless of worker count or
// arrival order — the foundation of the Workers=1 ≡ Workers=N
// determinism guarantee.
func (s *Spectral) WarmCtx(ctx context.Context, k int) error {
	if k < 2 {
		return nil // k=1 never touches the decomposition
	}
	if n := s.g.N(); k > n {
		k = n
	}
	_, err := s.decomposition(ctx, k)
	return err
}

// decomposition returns a cached decomposition with at least k
// eigenpairs. A memo that is wide enough is returned at once (a hit).
// Otherwise the call takes the solve token, queueing while another call
// holds it (a wait) for as long as ctx is live, re-reads the memo (the
// previous holder may have stored a wide enough one) and solves. Only a
// successful solve that is wider than the memo is stored, and the call
// then answers from the memo like every other.
func (s *Spectral) decomposition(ctx context.Context, k int) (*eigen.Decomposition, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dec := s.memo(k); dec != nil {
		return dec, nil
	}
	select {
	case s.solve <- struct{}{}:
	default:
		specWaits.Inc()
		select {
		case s.solve <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() { <-s.solve }()
	if dec := s.memo(k); dec != nil {
		return dec, nil
	}

	// Uniform headroom: solve for a few eigenpairs beyond k so a k-sweep
	// widens the cache in a handful of steps. Every solve, a widening
	// included, is the cold one a fresh Spectral runs at the same k
	// (docs/NUMERICS.md § Headroom).
	want := min(k+sweepHeadroom, s.g.N())
	specMisses.Inc()
	sp := stageEigen.Start()
	dec, err := decompose(ctx, s.g, want, s.method, s.opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.dec == nil || len(dec.Values) > len(s.dec.Values) {
		s.dec = dec
	}
	s.mu.Unlock()
	if dec := s.memo(k); dec != nil {
		return dec, nil
	}
	return nil, fmt.Errorf("cut: decomposition produced %d of %d requested eigenpairs", len(dec.Values), k)
}

// memo returns the cached decomposition when it holds at least k
// eigenpairs, counting a hit, and nil otherwise.
func (s *Spectral) memo(k int) *eigen.Decomposition {
	s.mu.Lock()
	dec := s.dec
	s.mu.Unlock()
	if dec == nil || len(dec.Values) < k {
		return nil
	}
	specHits.Inc()
	return dec
}

// sweepHeadroom is the extra eigenpairs a decomposition computes beyond
// the k that triggered it, so a deepening sweep widens the cache in
// strides instead of one solve per k.
const sweepHeadroom = 8

// decompose computes the k smallest eigenpairs of the method's matrix,
// always matrix-free: every method is an eigen.RankOneOp-shaped operator
// (or the normalized Laplacian for the ncut baseline) handed to the
// Lanczos solver (one Krylov chain plus restart rows, docs/NUMERICS.md
// § The Lanczos variant) — the α-Cut matrix is never materialized
// (docs/NUMERICS.md § The sparse-plus-rank-one matvec).
func decompose(ctx context.Context, g *graph.Graph, k int, method Method, opts Options) (*eigen.Decomposition, error) {
	adj, err := g.AdjacencyCSR()
	if err != nil {
		return nil, err
	}
	var op eigen.Op
	switch method {
	case MethodNCut:
		op, err = NewNCutOp(adj)
	case MethodScalarAlpha:
		// opts reached here through Options.normalized, so Alpha is set.
		op, err = NewScalarAlphaOp(adj, opts.Alpha)
	default:
		op, err = NewAlphaCutOp(adj)
	}
	if err != nil {
		return nil, err
	}
	return eigen.Lanczos(ctx, op, k, eigen.LanczosOptions{Seed: opts.Seed, Workers: opts.Workers})
}
