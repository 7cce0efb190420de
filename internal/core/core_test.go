package core

import (
	"context"
	"testing"

	"roadpart/internal/cut"
	"roadpart/internal/gen"
	"roadpart/internal/metrics"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// testNetwork returns a small city with hotspot traffic applied.
func testNetwork(t *testing.T) *roadnet.Network {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 150, TargetSegments: 280, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPartitionAllSchemes(t *testing.T) {
	net := testNetwork(t)
	for _, scheme := range []Scheme{AG, NG, ASG, NSG} {
		cfg := Config{K: 4, Scheme: scheme, Seed: 1}
		res, err := Partition(net, cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.K != 4 {
			t.Fatalf("%v: K = %d, want 4", scheme, res.K)
		}
		if len(res.Assign) != len(net.Segments) {
			t.Fatalf("%v: assignment covers %d of %d segments", scheme, len(res.Assign), len(net.Segments))
		}
		g, err := roadnet.DualGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := metrics.ValidatePartition(g, res.Assign); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Report.K != 4 {
			t.Fatalf("%v: report K = %d", scheme, res.Report.K)
		}
	}
}

func TestSupergraphSchemesRecordModule2(t *testing.T) {
	net := testNetwork(t)
	res, err := Partition(net, Config{K: 3, Scheme: ASG, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Module2 == 0 {
		t.Fatal("ASG should record module 2 time")
	}
	direct, err := Partition(net, Config{K: 3, Scheme: AG, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Timing.Module2 != 0 {
		t.Fatal("AG should not run module 2")
	}
	if direct.Timing.Total < direct.Timing.Module1+direct.Timing.Module3 {
		t.Fatal("total time should include all modules")
	}
}

func TestPipelineReusesMining(t *testing.T) {
	net := testNetwork(t)
	p, err := NewPipeline(net, Config{Scheme: ASG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.SG == nil {
		t.Fatal("pipeline should mine the supergraph for ASG")
	}
	if len(p.SG.Nodes) >= p.G.N() {
		t.Fatalf("supergraph (%d) should be smaller than road graph (%d)", len(p.SG.Nodes), p.G.N())
	}
	sweep, err := p.SweepKCtx(context.Background(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 4 {
		t.Fatalf("sweep has %d points, want 4", len(sweep))
	}
	for _, pt := range sweep {
		if pt.Result.K != pt.K {
			t.Fatalf("sweep point k=%d produced K=%d", pt.K, pt.Result.K)
		}
	}
}

func TestBestKByANS(t *testing.T) {
	net := testNetwork(t)
	p, err := NewPipeline(net, Config{Scheme: AG, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	best, sweep, err := p.BestKByANS(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if best < 2 || best > 6 {
		t.Fatalf("best k = %d outside sweep range", best)
	}
	for _, pt := range sweep {
		if pt.K == best {
			for _, other := range sweep {
				if other.Result.Report.ANS < pt.Result.Report.ANS {
					t.Fatal("BestKByANS did not return the minimum")
				}
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	if AG.String() != "AG" || NG.String() != "NG" || ASG.String() != "ASG" || NSG.String() != "NSG" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Fatal("unknown scheme should still print")
	}
}

func TestPartitionErrors(t *testing.T) {
	net := testNetwork(t)
	if _, err := Partition(net, Config{K: 0, Scheme: AG}); err == nil {
		t.Fatal("k=0 should error")
	}
	p, err := NewPipeline(net, Config{Scheme: ASG, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PartitionKCtx(context.Background(), len(p.SG.Nodes)+1); err == nil {
		t.Fatal("k above supernode count should error")
	}
	if _, err := p.SweepKCtx(context.Background(), 3, 2); err == nil {
		t.Fatal("inverted sweep range should error")
	}
}

func TestSweepKClampsToMaxK(t *testing.T) {
	net := testNetwork(t)
	p, err := NewPipeline(net, Config{Scheme: ASG, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	max := p.MaxK()
	sweep, err := p.SweepKCtx(context.Background(), 2, max+50)
	if err != nil {
		t.Fatal(err)
	}
	if last := sweep[len(sweep)-1].K; last != max {
		t.Fatalf("sweep should clamp at MaxK=%d, ended at %d", max, last)
	}
	if _, err := p.SweepKCtx(context.Background(), max+1, max+5); err == nil {
		t.Fatal("sweep entirely above MaxK should error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	net := testNetwork(t)
	a, err := Partition(net, Config{K: 4, Scheme: ASG, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(net, Config{K: 4, Scheme: ASG, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("framework should be deterministic in seed")
		}
	}
}

func TestRefineConfigImprovesOrMatches(t *testing.T) {
	net := testNetwork(t)
	plain, err := Partition(net, Config{K: 4, Scheme: ASG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(net, Config{K: 4, Scheme: ASG, Seed: 3, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.K != 4 {
		t.Fatalf("refined K = %d, want 4", refined.K)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePartition(g, refined.Assign); err != nil {
		t.Fatal(err)
	}
	// Refinement optimizes the α-Cut objective on the similarity graph;
	// verify it did not worsen it.
	simG := SimilarityWeighted(g, net.Densities())
	before, err := cut.AlphaCutValue(simG, plain.Assign)
	if err != nil {
		t.Fatal(err)
	}
	after, err := cut.AlphaCutValue(simG, refined.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if after > before+1e-9 {
		t.Fatalf("refinement worsened the α-Cut: %v -> %v", before, after)
	}
}

func TestStabilityThresholdGrowsSupergraph(t *testing.T) {
	net := testNetwork(t)
	plain, err := NewPipeline(net, Config{Scheme: ASG, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewPipeline(net, Config{Scheme: ASG, Seed: 6, StabilityEps: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.SG.Nodes) < len(plain.SG.Nodes) {
		t.Fatalf("stability check should not shrink the supergraph: %d vs %d",
			len(strict.SG.Nodes), len(plain.SG.Nodes))
	}
}
