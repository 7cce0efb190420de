package kmeans

import (
	"context"
	"fmt"
	"math"

	"roadpart/internal/obs"
	"roadpart/internal/parallel"
)

// NDCtx run accounting: restarts fanned out and Lloyd iterations consumed
// across them. Both totals are deterministic for a given input and seed
// (worker count never changes them).
var (
	ndRestarts = obs.Default().Counter("roadpart_kmeans_restarts_total",
		"k-means restarts executed on spectral embeddings.")
	ndIterations = obs.Default().Counter("roadpart_kmeans_iterations_total",
		"Lloyd iterations consumed across the k-means restarts on spectral embeddings (1-D runs count in roadpart_kmeans_1d_iterations_total).")
)

// Seeding selects the initialization strategy for NDCtx.
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

// NDCtx clusters d-dimensional points into k clusters with Lloyd's
// algorithm. points[i] must all have the same dimension and finite
// coordinates. The best result (lowest WCSS) across opts.Restarts runs is
// returned, ties broken toward the lowest restart index. The input is not
// modified. Restarts observe ctx between runs (one restart — seeding plus
// its Lloyd iterations — is the cancellation grain) and NDCtx returns
// ctx's error once it is done.
func NDCtx(ctx context.Context, points [][]float64, k int, opts NDOptions) (*Result, error) {
	n := len(points)
	if k < 1 {
		return nil, fmt.Errorf("kmeans: ND needs k >= 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("kmeans: ND k=%d exceeds %d points", k, n)
	}
	dim := len(points[0])
	var r2 float64 // the largest squared norm, for the Lloyd pass's margin
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: ND point %d has dim %d, want %d", i, len(p), dim)
		}
		var ss float64
		for j, v := range p {
			if v-v != 0 { // NaN or ±Inf
				return nil, fmt.Errorf("kmeans: ND point %d coordinate %d is %v, want a finite value", i, j, v)
			}
			ss += v * v
		}
		r2 = max(r2, ss)
	}
	radius := math.Sqrt(r2)
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
		wcss, iters := lloydInto(points, radius, maxIter, s)
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

// Safety margin of the bounded Lloyd pass (docs/NUMERICS.md §
// Determinism). After t passes over dim-dimensional points whose norms
// are at most R, a point skips its scan only when its upper bound plus
//
//	η = (t+2)·(dim+6)·(boundSlack·R + boundFloor)
//
// is still strictly below its lower bound. boundSlack covers the
// rounding of every distance, centroid drift and bound update (at most
// (dim+6)·2⁻⁵⁰·R per pass, doubled); boundFloor covers gradual underflow
// in the squared distances. Above boundMaxRadius squared distances may
// overflow, so pruning is off and every point is scanned.
const (
	boundSlack     = 0x1p-49
	boundFloor     = 0x1p-500
	boundMaxRadius = 0x1p500
)

// boundMargin returns η for pass t; it is +Inf when pruning is off.
func boundMargin(t, dim int, radius float64) float64 {
	if !(radius <= boundMaxRadius) {
		return math.Inf(1)
	}
	return float64(t+2) * float64(dim+6) * (boundSlack*radius + boundFloor)
}

// nearest is the plain Lloyd scan over every centroid: it returns the
// centroid with the smallest squared distance to p (the lowest index
// wins ties and a NaN distance never wins), that distance, and the
// smallest squared distance to any other centroid.
func nearest(p []float64, means [][]float64) (best int, bestD, nextD float64) {
	bestD, nextD = math.Inf(1), math.Inf(1)
	for c, m := range means {
		d := sqDist(p, m)
		if d < bestD {
			best, bestD, nextD = c, d, bestD
		} else if d < nextD {
			nextD = d
		}
	}
	return best, bestD, nextD
}

// lloydInto runs Lloyd's algorithm from the centroids in s.means to
// convergence or maxIter passes in s's buffers, and returns the WCSS and
// the pass count. radius bounds the Euclidean norm of every point.
//
// It is Hamerly's bounded Lloyd (Hamerly, "Making k-means even faster",
// SDM 2010) with output bit-identical to the plain loop. Every point
// keeps an upper bound on the distance to its own centroid and a lower
// bound on the distance to every other one. A point whose upper bound
// plus boundMargin is strictly below max(lower bound, half the distance
// from its centroid to the nearest other centroid) keeps its cluster
// without a scan; every other point runs the plain scan, nearest. Sizes
// and sums are rebuilt in data order on every pass, so the centroids are
// the same floats, and the WCSS is summed in data order against the
// centroids the last assignment pass used. It allocates nothing — this
// is the k-means allocation-free pin of docs/PERFORMANCE.md.
//
// s.assign may be dirty: the first pass scans every point regardless of
// its prior contents, and the convergence check ignores its changed flag.
func lloydInto(points [][]float64, radius float64, maxIter int, s *ndScratch) (wcss float64, iter int) {
	means, prev, assign, sizes, sums := s.means, s.prev, s.assign, s.sizes, s.sums
	upper, lower, move, half := s.d2, s.lower, s.move, s.half
	dim := len(means[0])
	// drift is the largest centroid move of the last update, far its
	// centroid and drift2 the largest move of any other centroid.
	var drift, drift2 float64
	far := -1
	cut := true // the loop ran out of passes rather than converging
	for ; iter < maxIter; iter++ {
		for c := range sums {
			sizes[c] = 0
			clear(sums[c])
		}
		eta := boundMargin(iter, dim, radius)
		var changed bool
		for i, p := range points {
			a := assign[i]
			scan := iter == 0
			if !scan {
				upper[i] += move[a]
				if a == far {
					lower[i] -= drift2
				} else {
					lower[i] -= drift
				}
				bound := lower[i] // a NaN bound never prunes
				if h := half[a]; h > bound {
					bound = h
				}
				if !(upper[i]+eta < bound) {
					upper[i] = math.Sqrt(sqDist(p, means[a]))
					scan = !(upper[i]+eta < bound)
				}
			}
			if scan {
				best, bestD, nextD := nearest(p, means)
				upper[i], lower[i] = math.Sqrt(bestD), math.Sqrt(nextD)
				if a != best {
					assign[i] = best
					changed = true
				}
				a = best
			}
			sizes[a]++
			sum := sums[a][:len(p)]
			for d, v := range p {
				sum[d] += v
			}
		}
		if iter > 0 && !changed {
			cut = false
			break
		}
		drift, drift2, far = 0, 0, -1
		for c := range means {
			copy(prev[c], means[c])
			if sizes[c] > 0 { // an empty cluster keeps its previous centroid
				for d := range means[c] {
					means[c][d] = sums[c][d] / float64(sizes[c])
				}
			}
			move[c] = math.Sqrt(sqDist(prev[c], means[c]))
			if move[c] > drift {
				drift, drift2, far = move[c], drift, c
			} else if move[c] > drift2 {
				drift2 = move[c]
			}
		}
		for c := range means {
			h := math.Inf(1)
			for j := range means {
				if d := sqDist(means[c], means[j]); j != c && d < h {
					h = d
				}
			}
			half[c] = 0.5 * math.Sqrt(h)
		}
	}
	final := means
	if cut {
		final = prev
	}
	for i, p := range points {
		// The scan's best distance starts at +Inf, which a NaN distance
		// never displaces.
		d := sqDist(p, final[assign[i]])
		if !(d < math.Inf(1)) {
			d = math.Inf(1)
		}
		wcss += d
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

// prngIncrement is the fixed state advance per draw; NDCtx relies on it to
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
