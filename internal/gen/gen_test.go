package gen

import (
	"math"
	"testing"

	"roadpart/internal/roadnet"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(1)
	p := r.Perm(30)
	seen := make([]bool, 30)
	for _, v := range p {
		if seen[v] {
			t.Fatal("Perm is not a permutation")
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(0).Intn(0)
}

// dualConnected reports whether the network's dual road graph is connected.
func dualConnected(t *testing.T, net *roadnet.Network) bool {
	t.Helper()
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	_, count := g.GroupComponents(make([]int, g.N()))
	return count == 1
}

func TestCityExactCounts(t *testing.T) {
	net, err := City(CityConfig{TargetIntersections: 200, TargetSegments: 350, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Intersections) != 200 {
		t.Fatalf("intersections = %d, want 200", len(net.Intersections))
	}
	if len(net.Segments) != 350 {
		t.Fatalf("segments = %d, want 350", len(net.Segments))
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCityPromotesTwoWayWhenTargetHigh(t *testing.T) {
	// Target above the road count forces two-way promotion.
	net, err := City(CityConfig{TargetIntersections: 100, TargetSegments: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Segments) != 300 {
		t.Fatalf("segments = %d, want 300", len(net.Segments))
	}
	// Count opposing pairs.
	type key struct{ a, b int }
	fwd := map[key]bool{}
	pairs := 0
	for _, s := range net.Segments {
		if fwd[key{s.To, s.From}] {
			pairs++
		}
		fwd[key{s.From, s.To}] = true
	}
	if pairs == 0 {
		t.Fatal("expected two-way pairs when target exceeds road count")
	}
}

func TestCityStaysConnected(t *testing.T) {
	// Aggressive removal must not disconnect the dual graph.
	net, err := City(CityConfig{TargetIntersections: 150, TargetSegments: 149, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !dualConnected(t, net) {
		t.Fatal("spanning-tree city should have a connected dual")
	}
}

func TestCityDeterministic(t *testing.T) {
	a, err := City(CityConfig{TargetIntersections: 120, TargetSegments: 200, Seed: 9, Jitter: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := City(CityConfig{TargetIntersections: 120, TargetSegments: 200, Seed: 9, Jitter: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatal("same seed should give identical network")
		}
	}
}

func TestCityErrors(t *testing.T) {
	if _, err := City(CityConfig{TargetIntersections: 1}); err == nil {
		t.Fatal("tiny city should error")
	}
}

// table1City is the street-network configuration of a Table 1 dataset at
// full size, as the experiment harness builds it.
func table1City(intersections, segments int, seed uint64) CityConfig {
	return CityConfig{
		TargetIntersections: intersections,
		TargetSegments:      segments,
		Spacing:             100,
		Jitter:              0.15,
		Seed:                seed,
	}
}

func TestD1PresetMatchesTable1(t *testing.T) {
	net, err := City(table1City(237, 420, 0xD1))
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Intersections) != 237 {
		t.Fatalf("D1 intersections = %d, want 237", len(net.Intersections))
	}
	if len(net.Segments) != 420 {
		t.Fatalf("D1 segments = %d, want 420", len(net.Segments))
	}
	if !dualConnected(t, net) {
		t.Fatal("D1 dual should be connected")
	}
}

func TestM1PresetMatchesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("large network generation in -short mode")
	}
	net, err := City(table1City(10096, 17206, 0x41))
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Intersections) != 10096 || len(net.Segments) != 17206 {
		t.Fatalf("M1 = %d/%d, want 10096/17206", len(net.Intersections), len(net.Segments))
	}
	if !dualConnected(t, net) {
		t.Fatal("M1 dual should be connected")
	}
}
