package kmeans

import (
	"sync"

	"roadpart/internal/obs"
)

// ndScratch holds one restart's working set — centroids, per-cluster
// sums, squared distances, the Forgy permutation and the assignment —
// backed by flat arrays so repeated ND calls reuse memory instead of
// reallocating O(n + k·dim) per restart.
type ndScratch struct {
	meansBack []float64   // k×dim centroid backing store
	means     [][]float64 // row views into meansBack
	sumsBack  []float64   // k×dim per-cluster sum backing store
	sums      [][]float64 // row views into sumsBack
	d2        []float64   // k-means++ squared distances, length n
	perm      []int       // Forgy permutation, length n
	assign    []int       // point → cluster, length n
	sizes     []int       // cluster populations, length k
}

// reset sizes the scratch for n points, k clusters and dim dimensions,
// growing buffers as needed. Contents are unspecified after reset; the
// seeding and Lloyd passes overwrite everything they read.
func (s *ndScratch) reset(n, k, dim int) {
	s.meansBack = grow(s.meansBack, k*dim)
	s.sumsBack = grow(s.sumsBack, k*dim)
	if cap(s.means) < k {
		s.means = make([][]float64, k)
		s.sums = make([][]float64, k)
	}
	s.means = s.means[:k]
	s.sums = s.sums[:k]
	for c := 0; c < k; c++ {
		s.means[c] = s.meansBack[c*dim : (c+1)*dim]
		s.sums[c] = s.sumsBack[c*dim : (c+1)*dim]
	}
	s.d2 = grow(s.d2, n)
	s.perm = grow(s.perm, n)
	s.assign = grow(s.assign, n)
	s.sizes = grow(s.sizes, k)
}

// footprint returns the scratch's buffer capacity in bytes, for the
// pool's bytes-reused accounting.
func (s *ndScratch) footprint() int {
	words := cap(s.meansBack) + cap(s.sumsBack) + cap(s.d2) +
		cap(s.perm) + cap(s.assign) + cap(s.sizes)
	return 8 * words
}

// Restart scratch pool: each concurrent restart borrows its own scratch,
// so the steady-state population is bounded by the worker count.
var (
	ndPool  sync.Pool
	ndTally = obs.NewPoolTally("kmeans_nd")
)

func getNDScratch() *ndScratch {
	if s, ok := ndPool.Get().(*ndScratch); ok {
		ndTally.Hit(s.footprint())
		return s
	}
	ndTally.Miss()
	return &ndScratch{}
}

func putNDScratch(s *ndScratch) {
	ndPool.Put(s)
}
