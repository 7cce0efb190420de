package roadpart

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the entire public API surface the way a
// downstream user would: generate, simulate, partition, evaluate, refine,
// compare to the baseline, track over time, render, and round-trip disk.
func TestFacadeEndToEnd(t *testing.T) {
	net, err := GenerateCity(CityConfig{TargetIntersections: 150, TargetSegments: 280, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := SimulateTraffic(net, TrafficConfig{Vehicles: 700, Steps: 200, RecordEvery: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := AverageDensities(snaps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDensities(net, snap); err != nil {
		t.Fatal(err)
	}

	res, err := PartitionCtx(context.Background(), net, Config{K: 4, Scheme: ASG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}

	g, err := DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePartition(g, res.Assign); err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(net.Densities(), res.Assign, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 4 || rep.ANS <= 0 {
		t.Fatalf("suspicious report: %+v", rep)
	}

	refined, k, err := RefinePartition(g, net.Densities(), res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("refined k = %d", k)
	}
	if err := ValidatePartition(g, refined); err != nil {
		t.Fatalf("refined partition invalid: %v", err)
	}
	// Refinement may restructure heavily when the start is poor; the
	// similarity must still be a well-defined ARI value.
	sim, err := PartitionSimilarity(res.Assign, refined)
	if err != nil {
		t.Fatal(err)
	}
	if sim < -1 || sim > 1 {
		t.Fatalf("ARI out of range: %v", sim)
	}

	base, err := BaselineJiGeroliminis(g, net.Densities(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePartition(g, base); err != nil {
		t.Fatal(err)
	}

	frames, err := RepartitionCtx(context.Background(), net, snaps, []int{1, 4}, ModeDistributed, TemporalConfig{Scheme: ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}

	var svg bytes.Buffer
	if err := RenderPartitionsSVG(&svg, net, res.Assign, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatal("SVG output malformed")
	}
	svg.Reset()
	if err := RenderDensitiesSVG(&svg, net, "densities"); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "net.json")
	if err := SaveNetwork(net, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Segments) != len(net.Segments) {
		t.Fatal("round trip lost segments")
	}
}

func TestFacadePipelineAndAutoK(t *testing.T) {
	net, err := GenerateRadialCity(RadialConfig{Rings: 6, Spokes: 10, TwoWay: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SynthesizeField(net, FieldConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDensities(net, snap); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipelineCtx(context.Background(), net, Config{Scheme: AG, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	best, sweep, err := p.BestKByANS(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if best < 2 || best > 6 || len(sweep) != 5 {
		t.Fatalf("auto-k failed: best=%d sweep=%d", best, len(sweep))
	}
	odSnaps, err := SimulateODTraffic(net, ODTrafficConfig{Vehicles: 150, Steps: 80, RecordEvery: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(odSnaps) == 0 {
		t.Fatal("no OD snapshots")
	}
}

func TestFacadeHierarchyAndGeoJSON(t *testing.T) {
	net, err := GenerateCity(CityConfig{TargetIntersections: 200, TargetSegments: 380, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := SimulateTraffic(net, TrafficConfig{Vehicles: 1200, Steps: 200, RecordEvery: 200, Hotspots: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDensities(net, snaps[0]); err != nil {
		t.Fatal(err)
	}

	root, err := BuildHierarchy(net, HierarchyConfig{Scheme: ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Validate(g); err != nil {
		t.Fatal(err)
	}
	assign, k := root.FlattenLevel(2)
	if k < 1 {
		t.Fatalf("flatten k = %d", k)
	}
	if err := ValidatePartition(g, assign); err != nil {
		t.Fatal(err)
	}

	var geo bytes.Buffer
	if err := WriteGeoJSON(&geo, net, assign); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGeoJSON(&geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Segments) != len(net.Segments) {
		t.Fatalf("GeoJSON round trip: %d vs %d segments", len(back.Segments), len(net.Segments))
	}
}

// TestOneSegmentNetworkAllSchemes pins the one-segment row of the
// degenerate-input contract: at k=1 every scheme returns the trivial
// partition, and at k=2 the supergraph schemes name the supernode bound
// while the flat schemes name k's range.
func TestOneSegmentNetworkAllSchemes(t *testing.T) {
	net := &Network{
		Intersections: []Intersection{{ID: 0}, {ID: 1, X: 100}},
		Segments:      []Segment{{ID: 0, From: 0, To: 1, Length: 100, Density: 0.05}},
	}
	for _, scheme := range []Scheme{AG, NG, ASG, NSG} {
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := PartitionCtx(context.Background(), net, Config{K: 1, Scheme: scheme, Seed: 1})
			if err != nil {
				t.Fatalf("k=1: %v", err)
			}
			if res.K != 1 || len(res.Assign) != 1 || res.Assign[0] != 0 {
				t.Fatalf("k=1: K=%d assign=%v, want the trivial partition", res.K, res.Assign)
			}
			_, err = PartitionCtx(context.Background(), net, Config{K: 2, Scheme: scheme, Seed: 1})
			if err == nil {
				t.Fatal("k=2 on one segment should fail")
			}
			want := "out of range [1,1]"
			if scheme == ASG || scheme == NSG {
				want = "exceeds 1 supernodes"
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("k=2: %v, want %q", err, want)
			}
		})
	}
}
