package kmeans

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// oracleAssignStep is the plain Lloyd assignment sweep the bounded pass
// replaced, kept verbatim: every point scans every centroid, and the
// sizes, sums and WCSS accumulate in data order.
func oracleAssignStep(points, means [][]float64, assign, sizes []int, sums [][]float64) (wcss float64, changed bool) {
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

// oracleLloyd is the plain assignment/update loop, kept verbatim.
func oracleLloyd(points, means [][]float64, maxIter int, assign, sizes []int, sums [][]float64) (wcss float64, iter int) {
	for ; iter < maxIter; iter++ {
		var changed bool
		wcss, changed = oracleAssignStep(points, means, assign, sizes, sums)
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

// oracleND is NDCtx with the plain Lloyd loop, its restarts run serially:
// the same per-restart seeding and the same index-ordered best-of fold.
func oracleND(points [][]float64, k int, opts NDOptions) *Result {
	n, dim := len(points), len(points[0])
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	restarts := max(opts.Restarts, 1)
	draws := uint64(k)
	if opts.Seeding == SeedForgy {
		draws = uint64(n - 1)
	}
	base := opts.Seed ^ 0x5851f42d4c957f2d
	var best *Result
	for r := 0; r < restarts; r++ {
		rng := prng{state: base + uint64(r)*draws*prngIncrement}
		var s ndScratch
		s.reset(n, k, dim)
		seedInto(points, k, opts.Seeding, &rng, &s)
		res := &Result{Assign: make([]int, n), Means: s.means, Sizes: make([]int, k), K: k}
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		res.WCSS, res.Iterations = oracleLloyd(points, res.Means, maxIter, res.Assign, res.Sizes, sums)
		if best == nil || res.WCSS < best.WCSS {
			best = res
		}
	}
	return best
}

// sameND reports the first difference between two d-dimensional
// clusterings, comparing means and WCSS by their float bits, or "" if
// they agree.
func sameND(got, want *Result) string {
	switch {
	case got.K != want.K:
		return "K"
	case got.Iterations != want.Iterations:
		return "Iterations"
	case math.Float64bits(got.WCSS) != math.Float64bits(want.WCSS):
		return "WCSS"
	case !slices.Equal(got.Assign, want.Assign):
		return "Assign"
	case !slices.Equal(got.Sizes, want.Sizes):
		return "Sizes"
	}
	for c := range want.Means {
		for d := range want.Means[c] {
			if math.Float64bits(got.Means[c][d]) != math.Float64bits(want.Means[c][d]) {
				return "Means"
			}
		}
	}
	return ""
}

// oraclePointSets returns the seeded point sets of the ND oracle
// property test, keyed by a name for failure messages.
func oraclePointSets() map[string][][]float64 {
	rng := prng{state: 41}
	set := func(n, dim int, f func(i, d int) float64) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = f(i, d)
			}
		}
		return pts
	}
	out := map[string][][]float64{}
	for _, n := range []int{1, 2, 9, 60, 400} {
		for _, dim := range []int{1, 3, 8} {
			out[fmt.Sprintf("uniform/%d/%d", n, dim)] = set(n, dim, func(int, int) float64 { return 2*rng.float64() - 1 })
			// Row-normalized, like the spectral embedding; clustered
			// around up to eight directions so bounds prune.
			unit := set(n, dim, func(i, d int) float64 {
				v := 0.4 * rng.float64()
				if d == i%8%dim {
					v++
				}
				if i%8 >= dim {
					v = -v
				}
				return v
			})
			for _, p := range unit {
				var ss float64
				for _, v := range p {
					ss += v * v
				}
				for d := range p {
					p[d] /= math.Sqrt(ss)
				}
			}
			out[fmt.Sprintf("unit/%d/%d", n, dim)] = unit
			// Integer grid: exact distance ties and duplicate points.
			out[fmt.Sprintf("grid/%d/%d", n, dim)] = set(n, dim, func(int, int) float64 { return float64(rng.intn(4)) })
		}
	}
	// Small integer sets: exact ties between a point's own centroid and
	// a lower-indexed one, which only a strict bound test resolves as
	// the scan does.
	for i := 0; i < 150; i++ {
		out[fmt.Sprintf("small/%03d", i)] = set(4+rng.intn(10), 1+rng.intn(2), func(int, int) float64 { return float64(rng.intn(7)) })
	}
	// Three distinct points repeated: seeds coincide, clusters empty out.
	out["duplicates"] = set(90, 2, func(i, _ int) float64 { return float64(i % 3) })
	out["one-point"] = set(40, 3, func(int, int) float64 { return 0.25 })
	// Far outside the margin's range on either side: squared distances
	// that overflow switch pruning off, tiny ones lean on the floor.
	out["huge"] = set(80, 2, func(int, int) float64 { return (rng.float64() - 0.5) * 1e300 })
	out["tiny"] = set(80, 2, func(i, _ int) float64 { return float64(i%4) * 1e-200 * (1 + rng.float64()) })
	return out
}

// TestNDMatchesOracle pins the bounded Lloyd pass to the plain loop:
// identical assignments, sizes and iteration counts, and identical float
// bits for every mean and the WCSS, over generated point sets, k from 1
// to n, iteration caps that stop the run early, both seedings and serial
// and parallel restarts.
func TestNDMatchesOracle(t *testing.T) {
	sets := oraclePointSets()
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	cases := 0
	for _, name := range names {
		pts := sets[name]
		n := len(pts)
		var ks []int
		if n <= 90 { // k == n; k-means++ seeding costs O(n·k²·dim)
			ks = append(ks, n)
		}
		for _, k := range []int{1, 2, 3, 5, 8} {
			if k < n {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			for _, maxIter := range []int{1, 2, 3, 0} {
				for _, seeding := range []Seeding{SeedPlusPlus, SeedForgy} {
					opts := NDOptions{Seeding: seeding, MaxIter: maxIter, Restarts: 3, Seed: uint64(k*7 + maxIter)}
					want := oracleND(pts, k, opts)
					for _, workers := range []int{1, 4} {
						opts.Workers = workers
						got, err := NDCtx(context.Background(), pts, k, opts)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sameND(got, want); diff != "" {
							t.Fatalf("%s k=%d maxIter=%d seeding=%d workers=%d: ND differs from the oracle in %s",
								name, k, maxIter, seeding, workers, diff)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases bit-identical to the plain loop", cases)
}

// TestBoundedLloydPrunes checks that the oracle test exercises pruning:
// on a converged clustered embedding nearly every point's bounds
// certify its centroid, so the last pass scans almost nothing.
func TestBoundedLloydPrunes(t *testing.T) {
	pts := oraclePointSets()["unit/400/8"]
	var s ndScratch
	s.reset(len(pts), 8, 8)
	rng := prng{state: 5}
	seedInto(pts, 8, SeedPlusPlus, &rng, &s)
	if _, iters := lloydInto(pts, 1, DefaultMaxIterations, &s); iters < 2 {
		t.Fatalf("converged after %d passes; nothing was bounded", iters)
	}
	eta := boundMargin(DefaultMaxIterations, 8, 1)
	certified := 0
	for i := range pts {
		if s.d2[i]+eta < max(s.lower[i], s.half[s.assign[i]]) {
			certified++
		}
	}
	if certified < len(pts)*9/10 {
		t.Fatalf("bounds certify %d of %d points, want at least 90%%", certified, len(pts))
	}
}

// TestNDRejectsNonFinite pins the named error for NaN and ±Inf
// coordinates, which used to fall silently into cluster 0.
func TestNDRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		v     float64
		point int
		coord int
	}{
		{"nan", math.NaN(), 0, 0},
		{"+inf", math.Inf(1), 3, 1},
		{"-inf", math.Inf(-1), 5, 2},
	} {
		pts := testPoints(6, 3)
		pts[tc.point][tc.coord] = tc.v
		_, err := NDCtx(context.Background(), pts, 2, NDOptions{})
		want := fmt.Sprintf("kmeans: ND point %d coordinate %d is %v, want a finite value", tc.point, tc.coord, tc.v)
		if err == nil || err.Error() != want {
			t.Errorf("%s: got error %v, want %q", tc.name, err, want)
		}
	}
}
