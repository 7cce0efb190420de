package kmeans

import (
	"context"
	"fmt"
	"math"

	"roadpart/internal/obs"
	"roadpart/internal/parallel"
)

// ND run accounting: restarts fanned out and Lloyd iterations consumed
// across them. Both totals are deterministic for a given input and seed
// (worker count never changes them).
var (
	ndRestarts = obs.Default().Counter("roadpart_kmeans_restarts_total",
		"k-means restarts executed on spectral embeddings.")
	ndIterations = obs.Default().Counter("roadpart_kmeans_iterations_total",
		"Lloyd iterations consumed across the k-means restarts on spectral embeddings (1-D runs count in roadpart_kmeans_1d_iterations_total).")
)

// Seeding selects the initialization strategy for ND.
type Seeding int

const (
	// SeedPlusPlus is k-means++: each new seed is drawn with probability
	// proportional to its squared distance from the nearest existing seed.
	SeedPlusPlus Seeding = iota
	// SeedForgy picks k distinct points uniformly at random.
	SeedForgy
)

// NDOptions configures the d-dimensional solver. The zero value selects
// k-means++ seeding, DefaultMaxIterations, a single restart and seed 0.
type NDOptions struct {
	Seeding  Seeding
	MaxIter  int
	Restarts int    // best-of-n restarts by WCSS; 0 means 1
	Seed     uint64 // deterministic RNG seed
	// Workers bounds the goroutines running restarts concurrently:
	// 0 selects GOMAXPROCS, 1 forces serial. Every restart draws its RNG
	// from a SplitMix64 stream derived from Seed before any restart runs,
	// so the result is bit-identical for every worker count.
	Workers int
}

// ND clusters d-dimensional points into k clusters with Lloyd's algorithm.
// points[i] must all have the same dimension. The best result (lowest WCSS)
// across opts.Restarts runs is returned, ties broken toward the lowest
// restart index. The input is not modified.
func ND(points [][]float64, k int, opts NDOptions) (*Result, error) {
	return NDCtx(context.Background(), points, k, opts)
}

// NDCtx is ND with cooperative cancellation: restarts observe ctx between
// runs (one restart — seeding plus its Lloyd iterations — is the
// cancellation grain) and NDCtx returns ctx's error once it is done.
// With an uncancelled ctx the result is bit-identical to ND.
func NDCtx(ctx context.Context, points [][]float64, k int, opts NDOptions) (*Result, error) {
	n := len(points)
	if k < 1 {
		return nil, fmt.Errorf("kmeans: ND needs k >= 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("kmeans: ND k=%d exceeds %d points", k, n)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: ND point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}

	// Give each restart its own RNG up front, then run restarts
	// concurrently. Restart r's generator depends only on (Seed, r) —
	// never on which goroutine runs it — so serial and parallel execution
	// produce the same per-restart results, and the index-ordered
	// reduction below picks the same winner.
	//
	// The per-restart states reproduce the historical sequential stream
	// exactly: seeding consumes one splitmix64 draw per centroid pick —
	// k for k-means++, n−1 for a Forgy permutation — Lloyd iteration
	// consumes none, and each draw advances the state by the fixed
	// increment, so restart r of the old one-stream loop started at
	// base + r·draws·increment. Any future seeding strategy with
	// data-dependent draw counts must switch to split seeds instead.
	draws := uint64(k)
	if opts.Seeding == SeedForgy {
		draws = uint64(n - 1)
	}
	base := opts.Seed ^ 0x5851f42d4c957f2d
	runs := make([]ndRun, restarts)
	err := parallel.ForCtx(ctx, restarts, opts.Workers, func(r int) {
		rng := prng{state: base + uint64(r)*draws*prngIncrement}
		s := getNDScratch()
		s.reset(n, k, dim)
		seedInto(points, k, opts.Seeding, &rng, s)
		wcss, iters := lloydInto(points, s.means, maxIter, s.assign, s.sizes, s.sums)
		runs[r] = ndRun{s: s, wcss: wcss, iters: iters}
	})
	if err != nil {
		for _, run := range runs {
			if run.s != nil {
				putNDScratch(run.s)
			}
		}
		return nil, fmt.Errorf("kmeans: ND interrupted: %w", err)
	}
	// Index-ordered fold: restart 0 wins ties (and NaN WCSS never
	// displaces it), exactly as the historical sequential reduction did.
	bestIdx := 0
	var iters uint64
	for r := range runs {
		iters += uint64(runs[r].iters)
		if runs[r].wcss < runs[bestIdx].wcss {
			bestIdx = r
		}
	}
	// Materialize the winner into fresh slices — the Result outlives the
	// pooled scratches — then return every scratch for reuse.
	win := runs[bestIdx]
	out := &Result{
		Assign:     append([]int(nil), win.s.assign...),
		Means:      make([][]float64, k),
		Sizes:      append([]int(nil), win.s.sizes...),
		WCSS:       win.wcss,
		Iterations: win.iters,
		K:          k,
	}
	for c := 0; c < k; c++ {
		out.Means[c] = append([]float64(nil), win.s.means[c]...)
	}
	for _, run := range runs {
		putNDScratch(run.s)
	}
	ndRestarts.Add(uint64(restarts))
	ndIterations.Add(iters)
	return out, nil
}

// ndRun records one restart's outcome; its scratch holds the assignment,
// sizes and centroids until the winner is materialized.
type ndRun struct {
	s     *ndScratch
	wcss  float64
	iters int
}

// seedInto writes the initial centroids into sc.means, drawing exactly
// the same RNG stream as the historical allocating seeder (one draw per
// centroid pick) so pooling cannot change which points are chosen.
func seedInto(points [][]float64, k int, s Seeding, rng *prng, sc *ndScratch) {
	n := len(points)
	means := sc.means
	switch s {
	case SeedForgy:
		rng.permInto(sc.perm)
		for i := 0; i < k; i++ {
			copy(means[i], points[sc.perm[i]])
		}
	default: // SeedPlusPlus
		copy(means[0], points[rng.intn(n)])
		d2 := sc.d2
		for used := 1; used < k; used++ {
			var total float64
			for i, p := range points {
				d := math.Inf(1)
				for _, m := range means[:used] {
					if v := sqDist(p, m); v < d {
						d = v
					}
				}
				d2[i] = d
				total += d
			}
			var next int
			if total == 0 {
				next = rng.intn(n) // all points coincide with seeds
			} else {
				target := rng.float64() * total
				var cum float64
				next = n - 1
				for i, d := range d2 {
					cum += d
					if cum >= target {
						next = i
						break
					}
				}
			}
			copy(means[used], points[next])
		}
	}
}

// assignStep performs one Lloyd assignment sweep: it rebuilds sizes and
// per-cluster coordinate sums, updates assign, and returns the sweep's
// WCSS and whether any assignment moved. It allocates nothing — this is
// the k-means assignment allocation-free pin of docs/PERFORMANCE.md.
func assignStep(points, means [][]float64, assign, sizes []int, sums [][]float64) (wcss float64, changed bool) {
	for c := range sums {
		sizes[c] = 0
		for d := range sums[c] {
			sums[c][d] = 0
		}
	}
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, m := range means {
			if d := sqDist(p, m); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
		sizes[best]++
		for d, v := range p {
			sums[best][d] += v
		}
		wcss += bestD
	}
	return wcss, changed
}

// lloydInto runs the assignment/update loop to convergence in the
// caller's buffers. assign may be dirty: the first sweep stores every
// point's true nearest centroid regardless of prior contents, and the
// convergence check ignores the first sweep's changed flag.
func lloydInto(points, means [][]float64, maxIter int, assign, sizes []int, sums [][]float64) (wcss float64, iter int) {
	for ; iter < maxIter; iter++ {
		var changed bool
		wcss, changed = assignStep(points, means, assign, sizes, sums)
		if iter > 0 && !changed {
			break
		}
		for c := range means {
			if sizes[c] == 0 {
				continue // empty cluster keeps its previous centroid
			}
			for d := range means[c] {
				means[c][d] = sums[c][d] / float64(sizes[c])
			}
		}
	}
	return wcss, iter
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// prng is a small deterministic generator (splitmix64 core).
type prng struct{ state uint64 }

// prngIncrement is the fixed state advance per draw; ND relies on it to
// fast-forward the stream to each restart's starting point.
const prngIncrement = 0x9e3779b97f4a7c15

func (p *prng) next() uint64 {
	p.state += prngIncrement
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) float64() float64 { return float64(p.next()>>11) / (1 << 53) }

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

func (p *prng) perm(n int) []int {
	out := make([]int, n)
	p.permInto(out)
	return out
}

// permInto fills out with a Fisher–Yates shuffle of 0..len(out)-1,
// consuming exactly the draws perm would. It allocates nothing.
func (p *prng) permInto(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := p.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
