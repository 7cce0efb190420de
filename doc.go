// Package roadpart partitions large urban road networks into spatially
// connected regions of homogeneous traffic congestion, implementing the
// two-level spectral framework of Anwar, Liu, Vu and Leckie, "Spatial
// Partitioning of Large Urban Road Networks" (EDBT 2014): road-graph
// construction, road-supergraph mining, and the k-way α-Cut.
//
// This package is the public facade; the implementation lives under
// internal/. Each job has one entry point, which takes a context: every
// stage observes it between bounded work items. A minimal session:
//
//	ctx := context.Background()
//	net, _ := roadpart.GenerateCity(roadpart.CityConfig{
//		TargetIntersections: 400, TargetSegments: 750, Seed: 42,
//	})
//	snaps, _ := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{Vehicles: 2000, Seed: 7})
//	roadpart.ApplyDensities(net, snaps[len(snaps)-1])
//
//	res, _ := roadpart.PartitionCtx(ctx, net, roadpart.Config{K: 6, Scheme: roadpart.ASG, Seed: 1})
//	for seg, region := range res.Assign { ... }
//
// Or let the framework pick k by the paper's ANS-minimum rule:
//
//	p, _ := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
//	k, _, _ := p.BestKByANSCtx(ctx, 2, 12)
//	res, _ := p.PartitionKCtx(ctx, k)
//
// Networks round-trip through JSON (LoadNetwork/SaveNetwork) with
// densities in CSV, so real city exports plug in wherever the generators
// are used. The package's Example functions are complete, output-checked
// programs (go test -run Example -v .); DESIGN.md and EXPERIMENTS.md
// cover the reproduction study.
package roadpart
