// Package gen produces the synthetic road networks that stand in for the
// paper's proprietary datasets (Section 6.1, Table 1).
//
// The paper evaluates on Downtown San Francisco (D1, 420 segments, shared
// privately by the authors of [5]) and three Melbourne exports (M1–M3, up
// to 79,487 segments). Neither is redistributable, so this package builds
// perturbed-lattice city networks with carved boundaries, mixed one-way
// and two-way roads and removable minor roads, sized to exactly the
// Table 1 statistics. The dual-graph topology class (grid cliques, linear
// chains) and the scale are what the partitioning framework is sensitive
// to; the precise street geometry is not.
//
// Beyond the Table-1 replicas (City), ScaleTier generates S/M/L/XL
// cities up to ~10⁶ directed segments following the degree and
// segment-length scaling laws of Lämmer et al. — mean intersection
// degree ≈ 3.1 and heavy-tailed log-normal block lengths — for the
// multilevel scale benchmarks (docs/SCALING.md, docs/EXPERIMENTS.md).
package gen

import "roadpart/internal/linalg"

// RNG is the shared SplitMix64 stream (linalg.RNG), used everywhere
// randomness is needed, so every network, trip table and density field
// is reproducible from its seed.
type RNG = linalg.RNG

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := linalg.RNGFromState(seed ^ 0x6a09e667f3bcc909)
	return &r
}
