package gen

import (
	"fmt"
	"math"

	"roadpart/internal/roadnet"
)

// CityConfig describes a synthetic city network. The generator lays out a
// jittered lattice of TargetIntersections points (a rectangle with part of
// its last row carved away to hit the count exactly), connects lattice
// neighbors with physical roads, removes non-bridging minor roads until the
// directed segment count hits TargetSegments, and emits one-way segments in
// the alternating pattern of real downtown grids — promoting roads to
// two-way (two opposing segments) when the target demands more segments
// than there are roads.
type CityConfig struct {
	// TargetIntersections is the exact number of intersections to produce.
	TargetIntersections int
	// TargetSegments is the desired number of directed road segments. The
	// generator hits it exactly whenever it lies between the spanning-tree
	// minimum and twice the road count; otherwise it gets as close as the
	// topology allows.
	TargetSegments int
	// Spacing is the lattice pitch in metres. 0 selects 100 m.
	Spacing float64
	// Jitter perturbs intersection positions by ±Jitter·Spacing in each
	// axis. Negative values are treated as 0; the default 0 keeps a clean
	// grid, 0.2 looks like an organically grown city.
	Jitter float64
	// Seed drives all randomness.
	Seed uint64
}

// City generates a synthetic road network per cfg. Densities are zero;
// populate them with the traffic package.
func City(cfg CityConfig) (*roadnet.Network, error) {
	ni := cfg.TargetIntersections
	if ni < 2 {
		return nil, fmt.Errorf("gen: need at least 2 intersections, got %d", ni)
	}
	spacing := cfg.Spacing
	if spacing <= 0 {
		spacing = 100
	}
	jitter := cfg.Jitter
	if jitter < 0 {
		jitter = 0
	}
	rng := NewRNG(cfg.Seed)
	place := func(r, c int) (x, y float64) {
		x = float64(c)*spacing + jitter*spacing*(2*rng.Float64()-1)
		y = float64(r)*spacing + jitter*spacing*(2*rng.Float64()-1)
		return x, y
	}
	// Keep every road when the target allows, down to the spanning-tree
	// floor otherwise; promote roads to two-way for a target above the
	// road count, at most all of them.
	budget := func(roads, tree int) (keep, twoWay int) {
		target := cfg.TargetSegments
		if target <= 0 {
			target = roads
		}
		keep = roads
		switch {
		case target < roads:
			keep = max(target, tree)
		case target > roads:
			twoWay = min(target-roads, roads)
		}
		return keep, twoWay
	}
	return lattice(ni, rng, place, budget)
}

// latticeShape returns the near-square lattice that holds ni
// intersections with the tail of its last row carved away: node (r, c)
// exists iff r*cols+c < ni, so the row-major ids r*cols+c are exactly
// 0..ni-1.
func latticeShape(ni int) (rows, cols int) {
	cols = int(math.Ceil(math.Sqrt(float64(ni))))
	return (ni + cols - 1) / cols, cols
}

// lattice builds the city network both generators share, on the ni-node
// lattice of latticeShape. place positions node (r, c) and is called in
// row-major order. Physical roads join lattice neighbours; a union–find
// spanning tree marks the roads that must survive; budget turns the road
// and tree counts into how many roads to keep and how many of those to
// promote to two-way. rng then removes random non-tree roads and promotes
// random kept ones, in that order, and one-way roads alternate direction
// by lattice row/column parity like real downtown grids.
func lattice(ni int, rng *RNG, place func(r, c int) (x, y float64), budget func(roads, tree int) (keep, twoWay int)) (*roadnet.Network, error) {
	rows, cols := latticeShape(ni)
	exists := func(r, c int) bool {
		return r >= 0 && c >= 0 && r < rows && c < cols && r*cols+c < ni
	}
	id := func(r, c int) int { return r*cols + c }

	net := &roadnet.Network{Intersections: make([]roadnet.Intersection, 0, ni)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !exists(r, c) {
				continue
			}
			x, y := place(r, c)
			net.Intersections = append(net.Intersections, roadnet.Intersection{ID: id(r, c), X: x, Y: y})
		}
	}

	type road struct {
		a, b       int
		horizontal bool
		r, c       int // lattice position of endpoint a
	}
	roads := make([]road, 0, 2*ni)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !exists(r, c) {
				continue
			}
			if exists(r, c+1) {
				roads = append(roads, road{a: id(r, c), b: id(r, c+1), horizontal: true, r: r, c: c})
			}
			if exists(r+1, c) {
				roads = append(roads, road{a: id(r, c), b: id(r+1, c), r: r, c: c})
			}
		}
	}

	parent := make([]int, ni)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := make([]bool, len(roads))
	treeCount := 0
	for i, rd := range roads {
		ra, rb := find(rd.a), find(rd.b)
		if ra != rb {
			parent[ra] = rb
			tree[i] = true
			treeCount++
		}
	}
	if treeCount != ni-1 {
		return nil, fmt.Errorf("gen: internal error: lattice not connected (%d tree edges for %d nodes)", treeCount, ni)
	}
	keep, twoWay := budget(len(roads), treeCount)

	removed := make([]bool, len(roads))
	var removable []int
	for i := range roads {
		if !tree[i] {
			removable = append(removable, i)
		}
	}
	perm := rng.Perm(len(removable))
	for i := 0; i < len(roads)-keep && i < len(removable); i++ {
		removed[removable[perm[i]]] = true
	}

	var kept []int
	for i := range roads {
		if !removed[i] {
			kept = append(kept, i)
		}
	}
	isTwoWay := make([]bool, len(roads))
	perm = rng.Perm(len(kept))
	for i := 0; i < twoWay && i < len(kept); i++ {
		isTwoWay[kept[perm[i]]] = true
	}

	px := make([]float64, ni)
	py := make([]float64, ni)
	for _, p := range net.Intersections {
		px[p.ID], py[p.ID] = p.X, p.Y
	}
	net.Segments = make([]roadnet.Segment, 0, keep+twoWay)
	addSeg := func(from, to int) {
		d := math.Hypot(px[from]-px[to], py[from]-py[to])
		if d < 1 {
			d = 1
		}
		net.Segments = append(net.Segments, roadnet.Segment{
			ID: len(net.Segments), From: from, To: to, Length: d,
		})
	}
	for i, rd := range roads {
		if removed[i] {
			continue
		}
		from, to := rd.a, rd.b
		if rd.horizontal {
			if rd.r%2 == 1 {
				from, to = to, from
			}
		} else if rd.c%2 == 1 {
			from, to = to, from
		}
		addSeg(from, to)
		if isTwoWay[i] {
			addSeg(to, from)
		}
	}

	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated network invalid: %w", err)
	}
	return net, nil
}
