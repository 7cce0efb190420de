package kmeans

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"roadpart/internal/linalg"
)

// oracleOneD is the point-by-point Lloyd loop the sorted-view kernel
// replaced, kept verbatim as the reference the production kernel must
// reproduce bit for bit: every point searches its nearest mean (binary
// search while the means are sorted, a linear scan otherwise), and the
// sums, sizes and WCSS accumulate in data-index order. rng != nil selects
// Forgy initialization, as OneDRandomInit does.
func oracleOneD(data []float64, k, maxIter int, rng *linalg.RNG) *Result {
	n := len(data)
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	means := make([]float64, k)
	sums := make([]float64, k)
	assign := make([]int, n)
	sizes := make([]int, k)
	if rng != nil {
		perm := rng.Perm(n)
		for j := 0; j < k; j++ {
			means[j] = data[perm[j]]
		}
	} else {
		sorted := make([]float64, n)
		copy(sorted, data)
		sort.Float64s(sorted)
		for j := 0; j < k; j++ {
			idx := (n * j) / k
			idx += n / (2 * k)
			if idx >= n {
				idx = n - 1
			}
			means[j] = sorted[idx]
		}
	}
	sort.Float64s(means)

	var wcss float64
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for c := range sums {
			sums[c] = 0
			sizes[c] = 0
		}
		sortedMeans := true
		for c := 1; c < k; c++ {
			if means[c-1] > means[c] {
				sortedMeans = false
				break
			}
		}
		wcss = 0
		for i, v := range data {
			best := -1
			var bestD float64
			if sortedMeans && v == v {
				if c := assign[i]; uint(c) < uint(k) {
					dc := (v - means[c]) * (v - means[c])
					if (c == 0 || (v-means[c-1])*(v-means[c-1]) > dc) &&
						(c == k-1 || (v-means[c+1])*(v-means[c+1]) > dc) {
						best, bestD = c, dc
					}
				}
				if best < 0 {
					best = oracleNearestSorted(means, v)
					bestD = (v - means[best]) * (v - means[best])
				}
			} else {
				best, bestD = 0, math.Inf(1)
				for c, m := range means {
					d := (v - m) * (v - m)
					if d < bestD {
						best, bestD = c, d
					}
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			sums[best] += v
			sizes[best]++
			wcss += bestD
		}
		if iter > 0 && !changed {
			break
		}
		for c := range means {
			if sizes[c] > 0 {
				means[c] = sums[c] / float64(sizes[c])
			}
		}
	}

	res := &Result{Assign: assign, Means: make([][]float64, k), Sizes: sizes, WCSS: wcss, Iterations: iter, K: k}
	for c := range means {
		res.Means[c] = []float64{means[c]}
	}
	return res
}

// oracleNearestSorted is the per-point binary search of the oracle loop.
func oracleNearestSorted(means []float64, v float64) int {
	lo, hi := 0, len(means)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if means[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	j := lo
	switch {
	case j == 0:
		return 0
	case j == len(means):
		j = len(means) - 1
	default:
		dlo, dhi := v-means[j-1], means[j]-v
		if dlo*dlo <= dhi*dhi {
			j--
		}
	}
	for j > 0 && means[j-1] == means[j] {
		j--
	}
	return j
}

// sameResult reports the first difference between two 1-D clusterings,
// comparing means and WCSS by their float bits, or "" if they agree.
func sameResult(got, want *Result) string {
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
		if math.Float64bits(got.Mean1(c)) != math.Float64bits(want.Mean1(c)) {
			return "Means"
		}
	}
	return ""
}

// oracleVectors returns the seeded test vectors of the oracle property
// test, keyed by a name for failure messages.
func oracleVectors() map[string][]float64 {
	rng := linalg.RNGFromState(17)
	vec := func(n int, f func() float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	out := map[string][]float64{}
	for _, n := range []int{1, 2, 7, 60, 500, 2100} {
		out[fmt.Sprint("uniform/", n)] = vec(n, func() float64 { return rng.Float64() * 100 })
		// Heavy-tailed densities, like congested road segments.
		out[fmt.Sprint("exp/", n)] = vec(n, func() float64 { return -math.Log(1-rng.Float64()) * 3 })
		// Few distinct values: duplicate initial means and clusters that
		// empty out, whose stale means are overtaken by a neighbour.
		out[fmt.Sprint("grid/", n)] = vec(n, func() float64 { return float64(rng.Intn(20)) })
	}
	// Signed zeros: the sorted initialization must pick the same zero.
	out["zeros"] = vec(300, func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return float64(rng.Intn(5)) - 2
	})
	// Values whose squared distances overflow, and values whose cluster
	// sums overflow to an infinite mean.
	out["huge"] = vec(200, func() float64 { return (rng.Float64() - 0.5) * 1e300 })
	out["overflow"] = vec(200, func() float64 { return rng.Float64() * math.MaxFloat64 })
	return out
}

// nonFiniteVectors returns seeded vectors holding NaN or ±Inf values,
// which OneD rejects.
func nonFiniteVectors() map[string][]float64 {
	rng := linalg.RNGFromState(29)
	vec := func(special float64, every int) []float64 {
		out := make([]float64, 150)
		for i := range out {
			out[i] = rng.Float64() * 10
		}
		for i := every / 2; i < len(out); i += every {
			out[i] = special
		}
		return out
	}
	out := map[string][]float64{}
	for _, every := range []int{3, 50} {
		out[fmt.Sprint("nan/", every)] = vec(math.NaN(), every)
		out[fmt.Sprint("+inf/", every)] = vec(math.Inf(1), every)
		out[fmt.Sprint("-inf/", every)] = vec(math.Inf(-1), every)
	}
	return out
}

// TestOneDMatchesOracle pins the production kernel to the oracle loop:
// identical assignments, sizes and iteration counts, and identical float
// bits for every mean and the WCSS. It runs the package-level OneD, the
// Forgy-initialized OneDRandomInit, and one dirty Scratch reused across
// every vector, k and iteration cap. Vectors with a NaN or ±Inf value
// are rejected by every entry point.
func TestOneDMatchesOracle(t *testing.T) {
	var s Scratch
	vectors := oracleVectors()
	names := make([]string, 0, len(vectors))
	for name := range vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := vectors[name]
		n := len(data)
		ks := []int{n}
		for k := 1; k <= 25 && k < n; k++ {
			ks = append(ks, k)
		}
		s.Prepare(data)
		for _, k := range ks {
			for _, maxIter := range []int{1, 2, 3, 0} {
				want := oracleOneD(data, k, maxIter, nil)
				got, err := s.Cluster(k, maxIter)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResult(got, want); diff != "" {
					t.Fatalf("%s k=%d maxIter=%d: Scratch.Cluster differs from the oracle in %s", name, k, maxIter, diff)
				}
			}
			fresh, err := OneD(data, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(fresh, oracleOneD(data, k, 0, nil)); diff != "" {
				t.Fatalf("%s k=%d: OneD differs from the oracle in %s", name, k, diff)
			}
			seed := uint64(k * 31)
			random, err := OneDRandomInit(data, k, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := linalg.RNGFromState(seed ^ 0xabcdef12345)
			if diff := sameResult(random, oracleOneD(data, k, 0, &rng)); diff != "" {
				t.Fatalf("%s k=%d: OneDRandomInit differs from the oracle in %s", name, k, diff)
			}
		}
	}
	for name, data := range nonFiniteVectors() {
		s.Prepare(data)
		if _, err := s.Cluster(2, 0); err == nil {
			t.Errorf("%s: Scratch.Cluster accepted a non-finite value", name)
		}
		if _, err := OneD(data, 2, 0); err == nil {
			t.Errorf("%s: OneD accepted a non-finite value", name)
		}
		if _, err := OneDRandomInit(data, 2, 0, 1); err == nil {
			t.Errorf("%s: OneDRandomInit accepted a non-finite value", name)
		}
	}
	// The scratch clusters again once a finite vector is prepared.
	data := vectors["uniform/60"]
	s.Prepare(data)
	got, err := s.Cluster(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(got, oracleOneD(data, 3, 0, nil)); diff != "" {
		t.Fatalf("after a rejected vector: Scratch.Cluster differs from the oracle in %s", diff)
	}
}

// TestOneDBoundaryCrossesCluster pins runs in which one Lloyd update
// moves a point past a whole cluster, so some cluster's new run of the
// sorted view lies entirely beside its old one. Relabelling only the
// positions each cluster gained must clamp every gained range to the
// cluster's new run, or it overwrites a neighbour's points.
//
// In both fixtures the sorted initialization gives two equal means, so
// one cluster starts empty and keeps a stale mean. In the first, the
// point 30 moves from cluster 0 to cluster 2 while cluster 1 takes the
// 19s. In the second, the point 20 ties between means 13 and 27, goes
// left, and moves from cluster 4 to cluster 2 past the still-empty
// cluster 3, whose run moves right of its old position.
func TestOneDBoundaryCrossesCluster(t *testing.T) {
	for _, fx := range []struct {
		data []float64
		k    int
	}{
		{[]float64{7, 30, 19, 19, 49, 84, 75, 41, 32, 19}, 4},
		{[]float64{13, 4, 1, 13, 20, 34}, 5},
	} {
		if !crossesCluster(oracleOneD(fx.data, fx.k, 1, nil).Assign, oracleOneD(fx.data, fx.k, 2, nil).Assign) {
			t.Fatalf("%v k=%d no longer moves a point past a whole cluster; the pin tests nothing", fx.data, fx.k)
		}
		var s Scratch
		s.Prepare(fx.data)
		for maxIter := 1; maxIter <= 4; maxIter++ {
			got, err := s.Cluster(fx.k, maxIter)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(got, oracleOneD(fx.data, fx.k, maxIter, nil)); diff != "" {
				t.Fatalf("%v k=%d maxIter=%d: differs from the oracle in %s", fx.data, fx.k, maxIter, diff)
			}
		}
	}
}

// crossesCluster reports whether some point moves from cluster c to a
// cluster at least two away between two assignments.
func crossesCluster(before, after []int) bool {
	for i := range before {
		if d := after[i] - before[i]; d >= 2 || d <= -2 {
			return true
		}
	}
	return false
}

// TestPrepareSortsLikeFloat64s pins the sorted view to sort.Float64s bit
// for bit, signed zeros included: the sorted initialization reads its
// starting means from the view.
func TestPrepareSortsLikeFloat64s(t *testing.T) {
	var s Scratch
	for name, data := range oracleVectors() {
		want := append([]float64(nil), data...)
		sort.Float64s(want)
		s.Prepare(data)
		seen := make([]bool, len(data))
		for p, i := range s.order {
			if seen[i] {
				t.Fatalf("%s: index %d appears twice in the view", name, i)
			}
			seen[i] = true
			if math.Float64bits(data[i]) != math.Float64bits(want[p]) {
				t.Fatalf("%s: view[%d] holds %v, sort.Float64s has %v", name, p, data[i], want[p])
			}
		}
	}
}
