// Package kmeans implements the two k-means variants the framework needs:
//
//   - OneD: Lloyd's algorithm on scalar data with the paper's deterministic
//     initialization — feature values are sorted and the j-th cluster mean
//     starts at the value at position n/κ·j — which sidesteps the usual
//     sensitivity to random initialization for 1-D data (Section 4.1).
//   - NDCtx: Lloyd's algorithm on d-dimensional points with k-means++
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

	"roadpart/internal/linalg"
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

// oneDExactPasses counts the 1-D Lloyd passes whose prefix-sum means were
// not certified, so the pass took data-order sums instead; its ratio to
// oneDIterations is the share of passes off the fast path.
var oneDExactPasses = obs.Default().Counter("roadpart_kmeans_1d_exact_passes_total",
	"1-D Lloyd passes that could not certify their prefix-sum means and summed in data order instead.")

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
	rng := linalg.RNGFromState(seed ^ 0xabcdef12345)
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
	// prefix[2j] and prefix[2j+1] are the high and low parts of the
	// compensated sum of the first j values of the sorted view.
	prefix []float64
	// slack is the absolute term of every prefix mean's margin (see
	// prefixMeans); +Inf when a prefix sum overflowed, so that no prefix
	// mean is ever certified.
	slack float64
	means []float64
	// errs[c] bounds how far means[c] lies from the mean data-order sums
	// give, and is 0 when means[c] is that mean; approx reports that some
	// errs[c] is nonzero.
	errs   []float64
	approx bool
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

// unitRoundoff is the float64 rounding unit, 2⁻⁵³.
const unitRoundoff = 0x1p-53

// Prepare sorts data into s's view, for Cluster calls on it, and sums the
// view into compensated prefix sums. The view orders values exactly as
// sort.Float64s does (the same placement of signed zeros), since the
// sorted initialization reads its starting means from it. Vectors of 2³¹
// values or more are not supported.
func (s *Scratch) Prepare(data []float64) {
	n := len(data)
	s.order = grow(s.order, n)
	s.finite = true
	var abs float64
	for i, v := range data {
		s.order[i] = int32(i)
		if v-v != 0 { // NaN or ±Inf
			s.finite = false
		}
		abs += math.Abs(v)
	}
	// slices.SortFunc runs the same pdqsort as slices.Sort, which
	// sort.Float64s calls, and its moves depend only on comparison
	// outcomes; cmp.Compare orders floats as slices.Sort does, so every
	// value lands where sort.Float64s puts it.
	slices.SortFunc(s.order, func(a, b int32) int { return cmp.Compare(data[a], data[b]) })
	s.data = data

	// Neumaier's summation: lo gathers the exact rounding error of every
	// addition to hi, so a difference of two prefixes keeps a run's sum
	// to within a few ulps of the run's magnitude, however large the
	// prefixes around it are.
	s.prefix = grow(s.prefix, 2*(n+1))
	p := s.prefix
	var hi, lo float64
	p[0], p[1] = 0, 0
	for j, i := range s.order {
		v := data[i]
		t := hi + v
		if math.Abs(hi) >= math.Abs(v) {
			lo += (hi - t) + v
		} else {
			lo += (v - t) + hi
		}
		hi = t
		p[2*j+2], p[2*j+3] = hi, lo
	}
	// Each pair misses its exact prefix sum by at most about n²u²Σ|v|,
	// which with the rounding of a run's difference stays below this
	// term, as does the underflow of a mean's division.
	nf := float64(n + 1)
	s.slack = 32*nf*nf*unitRoundoff*unitRoundoff*abs + 4*math.SmallestNonzeroFloat64
	if hi-hi+lo-lo != 0 {
		s.slack = math.Inf(1)
	}
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
// contiguous runs of the sorted view, found by searching for their k−1
// boundaries, and only points whose run changed are relabelled; the next
// means come from the prefix sums of the runs, in O(k log n) per pass.
// Otherwise (a stale empty-cluster mean overtaken by a neighbour) the
// pass scans every mean for each point.
//
// The point-by-point loop adds its sums in data-index order, and prefix
// means can differ from those in the last bits, so a pass uses prefix
// means only once it has certified that they split the view exactly as
// the data-order means would (certified); failing that, it takes the
// data-order means of the current assignment. Every pass thus assigns
// as the point-by-point loop does, and what the Result reports — the
// means, and the WCSS summed from them — is computed from data-order
// sums, so results are bit-identical to that loop (docs/NUMERICS.md
// § Determinism).
func (s *Scratch) cluster(k, maxIter int, rng *linalg.RNG) (*Result, error) {
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
	s.errs = grow(s.errs, k)
	s.sums = grow(s.sums, k)
	s.sizes = grow(s.sizes, k)
	s.bounds = grow(s.bounds, k+1)
	s.next = grow(s.next, k+1)
	s.assign = grow(s.assign, n)
	means, sums, sizes, assign := s.means, s.sums, s.sizes, s.assign
	clear(s.errs)
	s.approx = false

	if rng != nil {
		// Forgy: k distinct positions drawn at random.
		perm := rng.Perm(n)
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
		last := iter == maxIter-1
		sortedPass := ascending(means)
		if sortedPass {
			s.split(k, sorted)
		}
		// Prefix means stand in for the data-order ones only where
		// certified. The last pass's WCSS is summed from the means that
		// make its assignment, so those must be the data-order ones.
		if s.approx && (last || !sortedPass || !s.certified(k)) {
			if !last {
				oneDExactPasses.Inc()
			}
			s.exactMeans()
			if sortedPass = ascending(means); sortedPass {
				s.split(k, sorted)
			}
		}
		// Whether a point changed cluster is meaningless on the first
		// pass, which reads the previous call's assignment.
		var changed bool
		if sortedPass {
			changed = s.relabel(k, sorted)
		} else {
			changed = assignEach(data, means, assign, sums, sizes)
		}
		sorted = sortedPass
		converged := iter > 0 && !changed
		if converged && s.approx {
			// The assignment is the one the means were taken from, so
			// its data-order means are the ones the pass stood for.
			s.exactMeans()
		}
		if converged || last {
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
		switch {
		case !sortedPass:
			s.updateMeans()
		case last:
			s.exactMeans()
		default:
			s.prefixMeans(k)
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

// nearer reports whether v lies strictly nearer b than a, for means a < b:
// above a and, if not above b, at a smaller rounded squared distance from
// b — ties go to a, the lower index, as in a linear scan. It only rises
// with v and only falls as a or b rises.
func nearer(v, a, b float64) bool {
	dlo, dhi := v-a, b-v
	return v > a && (v > b || dlo*dlo > dhi*dhi)
}

// split finds the boundaries of an assignment pass over ascending means,
// in sorted order, into s.next. It gives each point the lowest index
// minimizing the rounded squared distance fl((v−m)²), as a linear scan
// does; over ascending means that index is monotone in v, so cluster c is
// the run of sorted positions [next[c], next[c+1]), and next[c] is the
// first position whose value lies nearer means[c] than means[c−1], found
// by binary search. With the previous pass's boundaries at hand (warm),
// the search first gallops out from the old boundary, since a Lloyd
// update moves most boundaries by a few positions.
func (s *Scratch) split(k int, warm bool) {
	data, order, means, prev, next := s.data, s.order, s.means, s.bounds, s.next
	next[0], next[k] = 0, len(order)
	for c := k - 1; c > 0; c-- {
		a, b := means[c-1], means[c]
		lo, hi := 0, next[c+1]
		if a == b {
			// A run of equal means goes to its first index, so cluster c
			// is empty.
			next[c] = hi
			continue
		}
		// Every position below lo is nearer a, every one from hi on
		// nearer b.
		switch g := prev[c]; {
		case !warm:
		case g < hi && !nearer(data[order[g]], a, b):
			lo = g + 1
			for step := 1; lo+step <= hi; step *= 2 {
				if p := lo + step - 1; nearer(data[order[p]], a, b) {
					hi = p
					break
				}
				lo += step
			}
		default:
			hi = min(g, hi)
			for step := 1; hi-step >= lo; step *= 2 {
				if p := hi - step; !nearer(data[order[p]], a, b) {
					lo = p + 1
					break
				}
				hi -= step
			}
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if nearer(data[order[mid]], a, b) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		next[c] = lo
	}
}

// certified reports whether the boundaries split found from prefix means
// are the ones the data-order means would give, and leaves no prefix mean
// on a cluster that empties (an empty cluster keeps its mean). The
// data-order mean of cluster c lies within errs[c] of means[c], and
// nearer only falls as either mean rises, so nearer at the low ends of
// both intervals and at their high ends brackets its value at the
// data-order means. Split searches below the boundary above, so, from
// the top down, a boundary stays put when nearer is certainly false just
// below it and certainly true at it; the intervals of neighbouring means
// must also be strictly ordered, so the data-order means ascend with no
// equal pair. A pair of data-order means needs no check.
func (s *Scratch) certified(k int) bool {
	data, order, means, errs, next := s.data, s.order, s.means, s.errs, s.next
	var aLo, aHi, aErr float64
	for c := 0; c < k; c++ {
		m, e := means[c], errs[c]
		bLo, bHi := m, m
		if e != 0 {
			if next[c] == next[c+1] {
				return false
			}
			bLo, bHi = math.Nextafter(m-e, math.Inf(-1)), math.Nextafter(m+e, math.Inf(1))
		}
		if c > 0 && (aErr != 0 || e != 0) {
			p := next[c]
			if !(aHi < bLo) ||
				p > 0 && nearer(data[order[p-1]], aLo, bLo) ||
				p < next[c+1] && !nearer(data[order[p]], aHi, bHi) {
				return false
			}
		}
		aLo, aHi, aErr = bLo, bHi, e
	}
	return true
}

// relabel applies the boundaries in s.next to the assignment and sizes.
// With the previous pass's boundaries at hand (incremental), only the
// positions a cluster gained are relabelled, each gained range clamped to
// the cluster's new run because a boundary can jump past a whole
// neighbouring cluster. It returns whether any point changed cluster.
func (s *Scratch) relabel(k int, incremental bool) bool {
	order, assign, prev, next := s.order, s.assign, s.bounds, s.next
	changed := false
	for c := 0; c < k; c++ {
		lo, hi := next[c], next[c+1]
		s.sizes[c] = hi - lo
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
			relabelRun(assign, order[lo:max(lo, min(hi, prev[c]))], c)
			relabelRun(assign, order[min(hi, max(lo, prev[c+1])):hi], c)
		}
	}
	s.bounds, s.next = next, prev
	return changed
}

// prefixMeans sets the mean of every nonempty cluster of the latest
// sorted pass from the prefix sums of its run, in O(1) each, with errs[c]
// bounding its distance from the data-order mean. For a run of m values
// of magnitude at most x (its end values, the view being sorted), the
// data-order sum lies within (m−1)u·mx of the exact sum, the prefix
// difference within 2u·mx plus the prefixes' own error, and each division
// adds u·x; twice (m+4)u·x plus slack covers all of it. A run whose sum
// might overflow gets an infinite margin.
func (s *Scratch) prefixMeans(k int) {
	p, b, data, order := s.prefix, s.bounds, s.data, s.order
	for c := 0; c < k; c++ {
		lo, hi := b[c], b[c+1]
		if lo == hi {
			continue
		}
		m := float64(hi - lo)
		s.means[c] = ((p[2*hi] - p[2*lo]) + (p[2*hi+1] - p[2*lo+1])) / m
		x := max(math.Abs(data[order[lo]]), math.Abs(data[order[hi-1]]))
		s.errs[c] = (2*m+8)*unitRoundoff*x + s.slack
		if m*x > math.MaxFloat64/2 {
			s.errs[c] = math.Inf(1)
		}
	}
	s.approx = true
}

// exactMeans sets the mean of every nonempty cluster from sums added in
// data-index order over the current assignment, as a point-by-point pass
// adds them.
func (s *Scratch) exactMeans() {
	sums := s.sums
	clear(sums)
	assign := s.assign[:len(s.data)]
	for i, v := range s.data {
		sums[assign[i]] += v
	}
	s.updateMeans()
}

// updateMeans divides the data-order sums by the sizes into the means. An
// empty cluster keeps its mean, which is a data-order mean too: a pass
// that would empty a cluster holding a prefix mean is never certified.
func (s *Scratch) updateMeans() {
	for c, size := range s.sizes {
		if size > 0 {
			s.means[c] = s.sums[c] / float64(size)
		}
	}
	clear(s.errs)
	s.approx = false
}

// relabelRun assigns every point of run to cluster c.
func relabelRun(assign []int, run []int32, c int) {
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
