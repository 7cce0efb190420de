package traffic

import (
	"math"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/linalg"
	"roadpart/internal/roadnet"
)

// lineNet builds a directed chain 0→1→2→3 of 100 m segments.
func lineNet() *roadnet.Network {
	n := &roadnet.Network{}
	for i := 0; i < 4; i++ {
		n.Intersections = append(n.Intersections, roadnet.Intersection{ID: i, X: float64(i) * 100})
	}
	for i := 0; i < 3; i++ {
		n.Segments = append(n.Segments, roadnet.Segment{ID: i, From: i, To: i + 1, Length: 100})
	}
	return n
}

func TestShortestPathChain(t *testing.T) {
	route, err := ShortestPath(lineNet(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 || route[0] != 0 || route[1] != 1 || route[2] != 2 {
		t.Fatalf("route = %v, want [0 1 2]", route)
	}
}

func TestShortestPathPrefersShorter(t *testing.T) {
	// Two routes from 0 to 2: direct long segment vs two short ones.
	n := &roadnet.Network{
		Intersections: []roadnet.Intersection{{ID: 0}, {ID: 1, X: 50}, {ID: 2, X: 100}},
		Segments: []roadnet.Segment{
			{ID: 0, From: 0, To: 2, Length: 500},
			{ID: 1, From: 0, To: 1, Length: 100},
			{ID: 2, From: 1, To: 2, Length: 100},
		},
	}
	route, err := ShortestPath(n, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 || route[0] != 1 || route[1] != 2 {
		t.Fatalf("route = %v, want [1 2]", route)
	}
}

func TestShortestPathRespectsDirection(t *testing.T) {
	// The chain is one-way: no route backwards.
	if _, err := ShortestPath(lineNet(), 3, 0); err == nil {
		t.Fatal("reverse route should not exist")
	}
}

func TestShortestPathTrivialAndErrors(t *testing.T) {
	n := lineNet()
	route, err := ShortestPath(n, 2, 2)
	if err != nil || route != nil {
		t.Fatalf("same-node route should be empty, got %v, %v", route, err)
	}
	if _, err := ShortestPath(n, -1, 0); err == nil {
		t.Fatal("bad endpoint should error")
	}
}

// testCity returns a modest connected city for simulation tests.
func testCity(t *testing.T) *roadnet.Network {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 120, TargetSegments: 260, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSimulateProducesSnapshots(t *testing.T) {
	net := testCity(t)
	snaps, err := Simulate(net, SimConfig{Vehicles: 300, Steps: 100, RecordEvery: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 10 {
		t.Fatalf("snapshots = %d, want 10", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if len(last) != len(net.Segments) {
		t.Fatalf("snapshot length %d != %d segments", len(last), len(net.Segments))
	}
	var total float64
	for i, d := range last {
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("invalid density %v", d)
		}
		total += d * net.Segments[i].Length
	}
	// Vehicle conservation: densities × lengths sum back to the fleet.
	if math.Abs(total-300) > 1e-6 {
		t.Fatalf("vehicle mass = %v, want 300", total)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	net := testCity(t)
	a, err := Simulate(net, SimConfig{Vehicles: 100, Steps: 50, RecordEvery: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(net, SimConfig{Vehicles: 100, Steps: 50, RecordEvery: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			t.Fatal("simulation should be deterministic in seed")
		}
	}
}

func TestSimulateCreatesSpatialStructure(t *testing.T) {
	// Hotspot gravity should leave some segments much busier than others;
	// a flat density field would defeat congestion-based partitioning.
	net := testCity(t)
	snaps, err := Simulate(net, SimConfig{Vehicles: 500, Steps: 300, RecordEvery: 300, Hotspots: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := snaps[0]
	mean := linalg.Sum(d) / float64(len(d))
	if mean <= 0 {
		t.Fatal("empty traffic")
	}
	var ss float64
	for _, v := range d {
		ss += (v - mean) * (v - mean)
	}
	cv := math.Sqrt(ss/float64(len(d))) / mean
	if cv < 0.5 {
		t.Fatalf("density coefficient of variation %v too flat for hotspot traffic", cv)
	}
}

func TestSimulateOutboundDiffersFromInbound(t *testing.T) {
	// Same seed, opposite gravity: the density fields must differ, and
	// inbound flow should concentrate mass nearer the hotspots than
	// outbound flow does.
	net := testCity(t)
	in, err := Simulate(net, SimConfig{Vehicles: 400, Steps: 200, RecordEvery: 200, Hotspots: 2, WanderFrac: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Simulate(net, SimConfig{Vehicles: 400, Steps: 200, RecordEvery: 200, Hotspots: 2, WanderFrac: -1, Outbound: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range in[0] {
		if in[0][i] != out[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("outbound gravity produced an identical field")
	}
}

func TestSimulateEmptyNetwork(t *testing.T) {
	if _, err := Simulate(&roadnet.Network{}, SimConfig{}); err == nil {
		t.Fatal("empty network should error")
	}
}

func TestApplySnapshot(t *testing.T) {
	net := lineNet()
	if err := ApplySnapshot(net, Snapshot{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	if net.Segments[2].Density != 0.3 {
		t.Fatal("snapshot not applied")
	}
	if err := ApplySnapshot(net, Snapshot{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSyntheticFieldShape(t *testing.T) {
	net := testCity(t)
	snap, err := SyntheticField(net, FieldConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(net.Segments) {
		t.Fatal("field length mismatch")
	}
	for _, d := range snap {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("invalid field density %v", d)
		}
	}
	// Spatial correlation: adjacent segments should be more similar than
	// random pairs.
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	var adjDiff, adjN float64
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				adjDiff += math.Abs(snap[u] - snap[e.To])
				adjN++
			}
		}
	}
	adjDiff /= adjN
	rng := gen.NewRNG(1)
	var rndDiff float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		a, b := rng.Intn(len(snap)), rng.Intn(len(snap))
		rndDiff += math.Abs(snap[a] - snap[b])
	}
	rndDiff /= trials
	if adjDiff >= rndDiff {
		t.Fatalf("no spatial correlation: adjacent diff %v >= random diff %v", adjDiff, rndDiff)
	}
}

func TestSyntheticFieldDeterministic(t *testing.T) {
	net := testCity(t)
	a, _ := SyntheticField(net, FieldConfig{Seed: 8})
	b, _ := SyntheticField(net, FieldConfig{Seed: 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("field should be deterministic in seed")
		}
	}
	c, _ := SyntheticField(net, FieldConfig{Seed: 9})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different fields")
	}
}

func TestSyntheticFieldEmptyNetwork(t *testing.T) {
	if _, err := SyntheticField(&roadnet.Network{}, FieldConfig{}); err == nil {
		t.Fatal("empty network should error")
	}
}
