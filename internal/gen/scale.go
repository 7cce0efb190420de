package gen

import (
	"fmt"
	"math"
	"strings"

	"roadpart/internal/roadnet"
)

// Tier names a synthetic-city scale class (docs/SCALING.md). ScaleTier
// cities follow the empirical scaling laws of Lämmer et al. (PAPERS.md)
// rather than the clean Table-1 grids: mean intersection degree ≈ 3.1
// and heavy-tailed (log-normal) segment lengths, so the scale benchmarks
// exercise realistic topology, not an artifact of uniform lattices.
type Tier int

const (
	// TierS is a district: ~1.25e3 intersections, ~2.5e3 directed segments.
	TierS Tier = iota
	// TierM is a town: ~1.25e4 intersections, ~2.5e4 segments.
	TierM
	// TierL is a metropolis: ~6.5e4 intersections, ~1.3e5 segments —
	// above core.DefaultMultilevelThreshold, so partitioning it engages
	// the multilevel path automatically.
	TierL
	// TierXL is a megacity: ~5.25e5 intersections, ~1.06e6 segments —
	// the million-node tier of docs/SCALING.md.
	TierXL
)

// tierIntersections maps each tier to its intersection count. With the
// fixed degree law (2·1.55 ≈ 3.1 road endpoints per intersection) and
// ~30% two-way promotion, the directed segment count comes out at
// ≈ 2.015× the intersection count.
func (t Tier) intersections() int {
	switch t {
	case TierS:
		return 1250
	case TierM:
		return 12500
	case TierL:
		return 65000
	case TierXL:
		return 525000
	default:
		return 0
	}
}

// String returns the tier spelling used by flags and benchmark names:
// "S", "M", "L", "XL".
func (t Tier) String() string {
	switch t {
	case TierS:
		return "S"
	case TierM:
		return "M"
	case TierL:
		return "L"
	case TierXL:
		return "XL"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// ParseTier parses a tier spelling ("S", "M", "L", "XL", any case).
func ParseTier(s string) (Tier, error) {
	switch strings.ToUpper(s) {
	case "S":
		return TierS, nil
	case "M":
		return TierM, nil
	case "L":
		return TierL, nil
	case "XL":
		return TierXL, nil
	default:
		return 0, fmt.Errorf("gen: unknown scale tier %q (want S, M, L or XL)", s)
	}
}

// ScaleTier generates the synthetic city for one scale tier. The layout
// is a lattice with log-normal row and column pitches — segment lengths
// inherit the heavy tail Lämmer et al. measure in real cities — thinned
// to a mean intersection degree of ≈ 3.1 by removing random non-bridging
// roads, with ≈ 30% of the kept roads promoted to two-way and the rest
// emitted one-way in alternating downtown fashion. Densities are zero;
// populate them with traffic.SyntheticField or traffic.Simulate. The
// network is a pure function of (t, seed).
func ScaleTier(t Tier, seed uint64) (*roadnet.Network, error) {
	ni := t.intersections()
	if ni == 0 {
		return nil, fmt.Errorf("gen: unknown scale tier %d", int(t))
	}
	rng := NewRNG(seed)

	// Heavy-tailed geometry: each row and column carries its own
	// log-normal pitch (median 80 m, σ = 0.9), so block lengths span
	// roughly an order of magnitude like the empirical length
	// distributions, while the lattice stays planar.
	const pitchMedian, pitchSigma = 80.0, 0.9
	rows, cols := latticeShape(ni)
	colX := make([]float64, cols)
	rowY := make([]float64, rows)
	for c := 1; c < cols; c++ {
		colX[c] = colX[c-1] + pitchMedian*math.Exp(pitchSigma*rng.NormFloat64())
	}
	for r := 1; r < rows; r++ {
		rowY[r] = rowY[r-1] + pitchMedian*math.Exp(pitchSigma*rng.NormFloat64())
	}
	place := func(r, c int) (x, y float64) {
		x = colX[c] + 0.1*pitchMedian*(2*rng.Float64()-1)
		y = rowY[r] + 0.1*pitchMedian*(2*rng.Float64()-1)
		return x, y
	}
	// Degree law: keep 1.55·ni roads so the mean intersection degree is
	// 2·keep/ni ≈ 3.1; promote 30% of them to two-way, putting the
	// directed segment count at ≈ 2.015·ni.
	budget := func(roads, tree int) (keep, twoWay int) {
		keep = min(max(int(1.55*float64(ni)), tree), roads)
		return keep, int(0.30 * float64(keep))
	}
	return lattice(ni, rng, place, budget)
}
