package kmeans

import (
	"sync"

	"roadpart/internal/obs"
)

// ndScratch holds one restart's working set — centroids, per-cluster
// sums, squared distances, the assignment and the bounded Lloyd pass's
// distance bounds — backed by flat arrays so repeated NDCtx calls reuse
// memory instead of reallocating O(n + k·dim) per restart.
type ndScratch struct {
	meansBack []float64   // k×dim centroid backing store
	means     [][]float64 // row views into meansBack
	prevBack  []float64   // k×dim centroids the last assignment pass used
	prev      [][]float64 // row views into prevBack
	sumsBack  []float64   // k×dim per-cluster sum backing store
	sums      [][]float64 // row views into sumsBack
	d2        []float64   // k-means++ squared distances while seeding, then Lloyd's upper bounds; length n
	lower     []float64   // Lloyd's lower bounds, length n
	move      []float64   // per-centroid drift of the last update, length k
	half      []float64   // half the distance to the nearest other centroid, length k
	assign    []int       // point → cluster, length n
	sizes     []int       // cluster populations, length k
}

// reset sizes the scratch for n points, k clusters and dim dimensions,
// growing buffers as needed. Contents are unspecified after reset; the
// seeding and Lloyd passes overwrite everything they read.
func (s *ndScratch) reset(n, k, dim int) {
	s.meansBack = grow(s.meansBack, k*dim)
	s.prevBack = grow(s.prevBack, k*dim)
	s.sumsBack = grow(s.sumsBack, k*dim)
	if cap(s.means) < k {
		s.means = make([][]float64, k)
		s.prev = make([][]float64, k)
		s.sums = make([][]float64, k)
	}
	s.means = s.means[:k]
	s.prev = s.prev[:k]
	s.sums = s.sums[:k]
	for c := 0; c < k; c++ {
		s.means[c] = s.meansBack[c*dim : (c+1)*dim]
		s.prev[c] = s.prevBack[c*dim : (c+1)*dim]
		s.sums[c] = s.sumsBack[c*dim : (c+1)*dim]
	}
	s.d2 = grow(s.d2, n)
	s.lower = grow(s.lower, n)
	s.move = grow(s.move, k)
	s.half = grow(s.half, k)
	s.assign = grow(s.assign, n)
	s.sizes = grow(s.sizes, k)
}

// footprint returns the scratch's buffer capacity in bytes, for the
// pool's bytes-reused accounting.
func (s *ndScratch) footprint() int {
	words := cap(s.meansBack) + cap(s.prevBack) + cap(s.sumsBack) +
		cap(s.d2) + cap(s.lower) + cap(s.move) + cap(s.half) +
		cap(s.assign) + cap(s.sizes)
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
