// Package kmeans implements the two k-means variants the framework needs:
//
//   - OneD: Lloyd's algorithm on scalar data with the paper's deterministic
//     initialization — feature values are sorted and the j-th cluster mean
//     starts at the value at position n/κ·j — which sidesteps the usual
//     sensitivity to random initialization for 1-D data (Section 4.1).
//   - NDCtx: Lloyd's algorithm on d-dimensional points with k-means++ or Forgy
//     seeding, used to cluster the row-normalized spectral embedding in
//     Algorithm 3.
//
// Both run to convergence or an iteration cap and report the within-cluster
// sum of squares so callers can compare runs.
package kmeans

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"roadpart/internal/obs"
)

// DefaultMaxIterations caps Lloyd's iterations when the caller passes 0.
const DefaultMaxIterations = 200

// Result describes a clustering of n items into k clusters.
type Result struct {
	// Assign[i] is the cluster index of item i, in [0, K).
	Assign []int
	// Means holds the cluster centroids; for OneD each is a scalar,
	// packed as Means[c][0].
	Means [][]float64
	// Sizes[c] is the number of items in cluster c.
	Sizes []int
	// WCSS is the within-cluster sum of squared distances (the k-means
	// objective value at convergence).
	WCSS float64
	// Iterations is the number of Lloyd's iterations performed.
	Iterations int
	// K is the number of clusters requested (empty clusters can occur
	// on degenerate data and keep their slot with size 0).
	K int
}

// Mean1 returns the scalar centroid of cluster c, for 1-D results.
func (r *Result) Mean1(c int) float64 { return r.Means[c][0] }

// oneDIterations counts the Lloyd iterations of every 1-D run, added once
// per run: supernode mining's κ-sweeps are the bulk of it.
var oneDIterations = obs.Default().Counter("roadpart_kmeans_1d_iterations_total",
	"Lloyd iterations consumed by 1-D k-means runs (supernode mining).")

// OneD clusters scalar data into k clusters using Lloyd's algorithm with
// the paper's sorted equal-interval initialization. maxIter <= 0 selects
// DefaultMaxIterations. The input slice is not modified, and every value
// must be finite.
//
// OneD is fully deterministic: identical inputs yield identical results.
// Every call sorts data and allocates a fresh Result; loops that cluster
// one vector many times (κ-sweeps) should Prepare a Scratch once and call
// its Cluster per κ instead.
func OneD(data []float64, k, maxIter int) (*Result, error) {
	var s Scratch
	s.Prepare(data)
	return s.cluster(k, maxIter, nil)
}

// OneDRandomInit is OneD with classic random (Forgy) initialization —
// k data values drawn without replacement, deterministic in seed. It
// exists for the ablation against the paper's sorted-interval
// initialization (Section 4.1), which OneD uses.
func OneDRandomInit(data []float64, k, maxIter int, seed uint64) (*Result, error) {
	var s Scratch
	s.Prepare(data)
	rng := prng{state: seed ^ 0xabcdef12345}
	return s.cluster(k, maxIter, &rng)
}

// Scratch holds a sorted view of one data vector and the working buffers
// for clustering it, so a κ-sweep sorts once and reuses memory instead of
// re-sorting and reallocating per candidate κ. The zero value is ready to
// use; buffers grow on demand and may be dirty between calls (no result
// depends on what a previous call left, so results are bit-identical to
// OneD's).
//
// Prepare retains the data slice: it must not be modified while Cluster
// calls on it are still to come. A Scratch must not be shared by
// concurrent calls, and the Result returned by Cluster — including
// Assign, Means and Sizes — is owned by the scratch and valid only until
// the next call on it. Callers keeping a clustering must copy those
// slices out first.
type Scratch struct {
	data   []float64 // the prepared vector
	order  []int32   // the sorted view: data indices by ascending value
	finite bool      // every prepared value is finite
	means  []float64
	sums   []float64
	assign []int
	sizes  []int
	// bounds[c] is the sorted position where cluster c starts, with
	// bounds[k] = n, valid after an assignment pass over sorted means;
	// next receives the following pass's boundaries.
	bounds, next []int
	out          [][]float64
	res          Result
}

// Prepare sorts data into s's view, for Cluster calls on it. The view
// orders values exactly as sort.Float64s does (the same placement of
// signed zeros), since the sorted initialization reads its starting means
// from it. Vectors of 2³¹ values or more are not supported.
func (s *Scratch) Prepare(data []float64) {
	n := len(data)
	s.order = grow(s.order, n)
	s.finite = true
	for i, v := range data {
		s.order[i] = int32(i)
		if v-v != 0 { // NaN or ±Inf
			s.finite = false
		}
	}
	// slices.SortFunc runs the same pdqsort as slices.Sort, which
	// sort.Float64s calls, and its moves depend only on comparison
	// outcomes; cmp.Compare orders floats as slices.Sort does, so every
	// value lands where sort.Float64s puts it.
	slices.SortFunc(s.order, func(a, b int32) int { return cmp.Compare(data[a], data[b]) })
	s.data = data
}

// Cluster runs OneD on the data of the latest Prepare. See the Scratch
// ownership contract for the returned Result's lifetime.
func (s *Scratch) Cluster(k, maxIter int) (*Result, error) {
	return s.cluster(k, maxIter, nil)
}

// grow returns s resized to length n, reallocating only when the capacity
// is insufficient. Its capacity at least doubles when it grows, so a
// κ-sweep reallocates its per-cluster buffers a few times rather than once
// per κ. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s), 16))
	}
	return s[:n]
}

// cluster is Lloyd's algorithm over the prepared vector. While the means
// are ascending, an assignment pass works in sorted order: the
// nearest-mean index is monotone in the value, so the clusters are k
// contiguous runs of the sorted view, found by binary search for their
// k−1 boundaries, and only points whose run changed are relabelled.
// Otherwise (a stale empty-cluster mean overtaken by a neighbour) the
// pass scans every mean for each point. A sorted pass assigns every
// point exactly as a point-by-point pass would, and the sums, sizes and
// WCSS add in data-index order, so results are bit-identical to the
// point-by-point loop (docs/NUMERICS.md § Determinism).
func (s *Scratch) cluster(k, maxIter int, rng *prng) (*Result, error) {
	data, order := s.data, s.order
	n := len(data)
	if k < 1 {
		return nil, fmt.Errorf("kmeans: OneD needs k >= 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("kmeans: OneD k=%d exceeds %d items", k, n)
	}
	if !s.finite {
		i := slices.IndexFunc(data, func(v float64) bool { return v-v != 0 })
		return nil, fmt.Errorf("kmeans: OneD value %d is %v, want a finite value", i, data[i])
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	s.means = grow(s.means, k)
	s.sums = grow(s.sums, k)
	s.sizes = grow(s.sizes, k)
	s.bounds = grow(s.bounds, k+1)
	s.next = grow(s.next, k+1)
	s.assign = grow(s.assign, n)
	means, sums, sizes, assign := s.means, s.sums, s.sizes, s.assign

	if rng != nil {
		// Forgy: k distinct positions drawn at random.
		perm := rng.perm(n)
		for j := 0; j < k; j++ {
			means[j] = data[perm[j]]
		}
	} else {
		// Sorted equal-interval initialization (Section 4.1): with sorted
		// feature values, the j-th cluster mean starts at position
		// ⌊n/k·j⌋ (clamped), giving means spread across the empirical
		// distribution.
		for j := 0; j < k; j++ {
			idx := (n * j) / k
			// Center each interval rather than taking its left edge so
			// k=1 starts at the median-ish value and extremes are not
			// wasted.
			idx += n / (2 * k)
			if idx >= n {
				idx = n - 1
			}
			means[j] = data[order[idx]]
		}
	}
	slices.Sort(means)

	var wcss float64
	// sorted records that the latest pass ran in sorted order, so
	// s.bounds describes the assignment.
	sorted := false
	iter := 0
	for ; iter < maxIter; iter++ {
		// Whether a point changed cluster is meaningless on the first
		// pass, which reads the previous call's assignment.
		var changed bool
		if ascending(means) {
			changed = s.assignSorted(k, sorted)
			sorted = true
		} else {
			changed = assignEach(data, means, assign, sums, sizes)
			sorted = false
		}
		converged := iter > 0 && !changed
		if converged || iter == maxIter-1 {
			// The WCSS of the last pass, summed in data-index order from
			// the means that made the assignment. The conversion rounds
			// each square, so no platform fuses it into the sum.
			for i, v := range data {
				d := v - means[assign[i]]
				wcss += float64(d * d)
			}
		}
		if converged {
			break
		}
		for c := range means {
			if sizes[c] > 0 {
				means[c] = sums[c] / float64(sizes[c])
			}
		}
	}
	oneDIterations.Add(uint64(iter))
	return s.result(k, iter, wcss), nil
}

// ascending reports whether means is sorted ascending.
func ascending(means []float64) bool {
	for c := 1; c < len(means); c++ {
		if means[c-1] > means[c] {
			return false
		}
	}
	return true
}

// assignSorted is one assignment pass over ascending means, in sorted
// order. It gives each point the lowest index minimizing the rounded
// squared distance fl((v−m)²), as a linear scan does; over ascending
// means that index is monotone in v, so cluster c is the run of sorted
// positions [next[c], next[c+1]), and next[c] is the first position whose
// value lies strictly nearer means[c] than means[c−1], found by binary
// search. With the previous pass's boundaries at hand (incremental), only
// the positions a cluster gained are relabelled, each gained range
// clamped to the cluster's new run because a boundary can jump past a
// whole neighbouring cluster. It returns whether any point changed
// cluster, and fills sums and sizes for the update.
func (s *Scratch) assignSorted(k int, incremental bool) bool {
	data, order, means, assign := s.data, s.order, s.means, s.assign
	n := len(order)
	prev, next := s.bounds, s.next
	next[0], next[k] = 0, n
	for c := k - 1; c > 0; c-- {
		a, b := means[c-1], means[c]
		lo, hi := 0, next[c+1]
		if a == b {
			// A run of equal means goes to its first index, so cluster c
			// is empty.
			next[c] = hi
			continue
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			// For a < b: v lies above a and, if not above b, strictly
			// nearer b than a — ties go to the lower index.
			v := data[order[mid]]
			dlo, dhi := v-a, b-v
			if v > a && (v > b || dlo*dlo > dhi*dhi) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		next[c] = lo
	}

	changed := false
	for c := 0; c < k; c++ {
		lo, hi := next[c], next[c+1]
		if !incremental {
			for _, i := range order[lo:hi] {
				if assign[i] != c {
					assign[i] = c
					changed = true
				}
			}
			continue
		}
		// A labelling by runs determines its boundaries, so a point
		// changed cluster exactly when a boundary moved.
		if prev[c] != lo || prev[c+1] != hi {
			changed = true
			relabel(assign, order[lo:max(lo, min(hi, prev[c]))], c)
			relabel(assign, order[min(hi, max(lo, prev[c+1])):hi], c)
		}
	}
	s.bounds, s.next = next, prev

	sums, sizes := s.sums, s.sizes
	for c := range sums {
		sums[c] = 0
		sizes[c] = next[c+1] - next[c]
	}
	// The sums add in data-index order, as a point-by-point pass adds
	// them, so every mean keeps its bits.
	assign = assign[:n]
	for i, v := range data {
		sums[assign[i]] += v
	}
	return changed
}

// relabel assigns every point of run to cluster c.
func relabel(assign []int, run []int32, c int) {
	for _, i := range run {
		assign[i] = c
	}
}

// assignEach is one assignment pass point by point, in data order: each
// point takes the lowest index minimizing its squared distance, found by
// a linear scan. It returns whether any point changed cluster, and fills
// sums and sizes for the update.
func assignEach(data, means []float64, assign []int, sums []float64, sizes []int) bool {
	for c := range sums {
		sums[c] = 0
		sizes[c] = 0
	}
	changed := false
	for i, v := range data {
		best, bestD := 0, math.Inf(1)
		for c, m := range means {
			if d := (v - m) * (v - m); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
		sums[best] += v
		sizes[best]++
	}
	return changed
}

// result packages a converged Lloyd state into the scratch's Result.
func (s *Scratch) result(k, iter int, wcss float64) *Result {
	s.out = grow(s.out, k)
	for c := range s.out {
		s.out[c] = s.means[c : c+1 : c+1]
	}
	s.res = Result{
		Assign:     s.assign,
		Means:      s.out,
		Sizes:      s.sizes,
		WCSS:       wcss,
		Iterations: iter,
		K:          k,
	}
	return &s.res
}
