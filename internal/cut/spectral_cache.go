package cut

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"roadpart/internal/eigen"
	"roadpart/internal/graph"
	"roadpart/internal/kmeans"
	"roadpart/internal/linalg"
	"roadpart/internal/obs"
)

// Single-flight cache accounting: a hit reads a warm decomposition, a
// miss computes one, a wait blocked on another goroutine's in-progress
// compute (a waiting lookup later resolves as a hit once the flight
// lands, so one lookup can count both a wait and a hit). The
// eigendecompose stage timer covers the compute itself.
var (
	specCacheHelp = "Spectral decomposition single-flight cache events by kind."
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
// A Spectral is safe for concurrent use. The decomposition is guarded by
// a single-flight protocol: the eigensolve runs outside the mutex (the
// lock is never held across O(n³) work), exactly one goroutine computes
// it while every other caller that needs it waits on the flight, and a
// warm cache is read with only a brief lock acquisition — a concurrent
// k-sweep against a warm cache never serializes.
//
// Cancellation composes with the single flight without poisoning the
// cache: a waiter whose context expires stops waiting immediately (the
// flight keeps computing for its owner), and when the computing
// goroutine's own context expires its cancellation error is never
// cached — surviving waiters promote one of themselves to a fresh
// flight under their own, still-live contexts.
type Spectral struct {
	level  Level
	g      *graph.Graph // level.Graph(), cached — the graph the solver factors
	method Method
	opts   Options

	mu     sync.Mutex
	dec    *eigen.Decomposition // nil until first use; len(Values) grows as needed
	flight *specFlight          // in-progress decomposition, nil when idle
}

// specFlight is one in-progress decomposition. Waiters block on done;
// err is written exactly once, before done is closed.
type specFlight struct {
	want int // eigenpair count being computed
	done chan struct{}
	err  error
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
	return &Spectral{level: level, g: level.Graph(), method: method, opts: opts.normalized()}
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

// ctxErr reports whether err is (or wraps) a context cancellation or
// deadline error — the class of failures that must never poison the
// single-flight cache for callers whose own contexts are still live.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// decomposition returns a cached decomposition with at least k
// eigenpairs. Cache hits take the lock only long enough to read the
// pointer. On a miss, exactly one goroutine computes the decomposition
// outside the lock while every other caller needing it waits on the
// flight — concurrent sweeps trigger no duplicate eigensolves and no
// lock-held O(n³) work.
//
// Cancellation semantics: a waiter stops waiting the moment its own ctx
// is done. When a flight lands with a context error (its owner was
// cancelled mid-eigensolve) the error is not cached and not propagated
// to waiters with live contexts — each such waiter loops, finds no
// flight, and one of them becomes the next computer. Only a flight's
// non-context error (a genuine solver failure, equally fatal for every
// caller) is propagated to its waiters.
func (s *Spectral) decomposition(ctx context.Context, k int) (*eigen.Decomposition, error) {
	s.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if s.dec != nil && len(s.dec.Values) >= k {
			dec := s.dec
			s.mu.Unlock()
			specHits.Inc()
			return dec, nil
		}
		if f := s.flight; f != nil {
			specWaits.Inc()
			// A decomposition is already being computed. Wait for it —
			// even when it is too narrow for this k, we wait and re-check
			// rather than start a second concurrent eigensolve.
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-f.done:
			}
			if f.err != nil && !ctxErr(f.err) {
				return nil, f.err
			}
			// Success, or the computer was cancelled: re-check under the
			// lock. Our own ctx is vetted at the top of the loop.
			s.mu.Lock()
			continue
		}

		// Uniform headroom: solve for a few eigenpairs beyond k so a
		// k-sweep widens the cache in a handful of steps. Every solve,
		// a widening included, is the cold one a fresh Spectral runs at
		// the same k (docs/NUMERICS.md § Headroom).
		want := min(k+sweepHeadroom, s.g.N())
		f := &specFlight{want: want, done: make(chan struct{})}
		s.flight = f
		s.mu.Unlock()

		specMisses.Inc()
		sp := stageEigen.Start()
		dec, err := decompose(ctx, s.g, want, s.method, s.opts)
		sp.End()

		s.mu.Lock()
		s.flight = nil
		if err != nil {
			f.err = err
			close(f.done)
			s.mu.Unlock()
			return nil, err
		}
		if s.dec == nil || len(dec.Values) > len(s.dec.Values) {
			s.dec = dec
		}
		close(f.done)
		if len(s.dec.Values) < k {
			s.mu.Unlock()
			return nil, fmt.Errorf("cut: decomposition produced %d of %d requested eigenpairs", len(s.dec.Values), k)
		}
		// Loop re-reads s.dec, which now satisfies k.
	}
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
