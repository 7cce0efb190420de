package roadpart_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"roadpart"
)

// Example is the quickstart: generate a small city, simulate traffic,
// partition it by congestion with the α-Cut supergraph framework
// (choosing k by the ANS minimum), and inspect the result.
func Example() {
	ctx := context.Background()
	// 1. A city: 400 intersections, 750 directed road segments.
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 400, TargetSegments: 750, Jitter: 0.15, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Traffic: 2,000 vehicles drawn to 5 hotspots for 600 ticks; the
	// last density snapshot becomes every segment's congestion feature.
	snaps, err := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{Vehicles: 2000, Hotspots: 5, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snaps[len(snaps)-1]); err != nil {
		log.Fatal(err)
	}

	// 3. Partition: supergraph mining + α-Cut, k by the ANS minimum.
	p, err := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined supergraph: %d supernodes from %d road segments\n", len(p.SG.Nodes), len(net.Segments))
	bestK, sweep, err := p.BestKByANSCtx(ctx, 2, 10)
	if err != nil {
		log.Fatal(err)
	}
	var res *roadpart.Result
	fmt.Println("  k    ANS   (lower is better)")
	for _, pt := range sweep {
		marker := ""
		if pt.K == bestK {
			res, marker = pt.Result, "  <- optimal"
		}
		fmt.Printf("%3d  %.4f%s\n", pt.K, pt.Result.Report.ANS, marker)
	}

	// 4. Inspect: per-region size and mean congestion.
	fmt.Printf("partitioned into %d connected regions:\n", res.K)
	sizes := make([]int, res.K)
	sums := make([]float64, res.K)
	for seg, part := range res.Assign {
		sizes[part]++
		sums[part] += net.Segments[seg].Density
	}
	for i := range sizes {
		fmt.Printf("  region %d: %3d segments, mean density %.4f veh/m\n", i, sizes[i], sums[i]/float64(sizes[i]))
	}
	fmt.Printf("quality: inter=%.4f intra=%.4f GDBI=%.4f ANS=%.4f\n",
		res.Report.Inter, res.Report.Intra, res.Report.GDBI, res.Report.ANS)
	// Output:
	// mined supergraph: 11 supernodes from 750 road segments
	//   k    ANS   (lower is better)
	//   2  0.3832
	//   3  0.3141
	//   4  0.3377
	//   5  0.3239
	//   6  0.3263
	//   7  0.2691
	//   8  0.2517
	//   9  0.1712
	//  10  0.1466  <- optimal
	// partitioned into 10 connected regions:
	//   region 0: 725 segments, mean density 0.0066 veh/m
	//   region 1:   4 segments, mean density 0.8677 veh/m
	//   region 2:   2 segments, mean density 0.6504 veh/m
	//   region 3:   2 segments, mean density 0.4621 veh/m
	//   region 4:   7 segments, mean density 0.3062 veh/m
	//   region 5:   1 segments, mean density 0.2209 veh/m
	//   region 6:   3 segments, mean density 0.7791 veh/m
	//   region 7:   1 segments, mean density 0.4439 veh/m
	//   region 8:   4 segments, mean density 1.1335 veh/m
	//   region 9:   1 segments, mean density 0.2073 veh/m
	// quality: inter=0.5402 intra=0.0909 GDBI=0.2609 ANS=0.1466
}

// ExamplePartitionCtx shows the one-call path: fixed k, default α-Cut
// supergraph scheme.
func ExamplePartitionCtx() {
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 150, TargetSegments: 280, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	snap, err := roadpart.SynthesizeField(net, roadpart.FieldConfig{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snap); err != nil {
		log.Fatal(err)
	}

	res, err := roadpart.PartitionCtx(context.Background(), net, roadpart.Config{K: 3, Scheme: roadpart.ASG, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("regions:", res.K)
	// Output: regions: 3
}

// ExampleNewPipelineCtx shows automatic selection of the partition count
// by the paper's ANS-minimum rule, reusing one pipeline across the sweep.
func ExampleNewPipelineCtx() {
	ctx := context.Background()
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 150, TargetSegments: 280, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	snap, err := roadpart.SynthesizeField(net, roadpart.FieldConfig{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snap); err != nil {
		log.Fatal(err)
	}

	p, err := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	bestK, _, err := p.BestKByANSCtx(ctx, 2, 6)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.PartitionKCtx(ctx, bestK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("segments assigned:", len(res.Assign) == len(net.Segments))
	// Output: segments assigned: true
}

// ExampleNewPipelineCtx_peakHours is the paper's motivating scenario:
// congestion shifts over the day, so the network is re-partitioned at
// regular intervals with one mined pipeline per snapshot, and the
// optimal region count and supergraph granularity track the developing
// congestion (the repeated-partitioning regime of Section 1).
func ExampleNewPipelineCtx_peakHours() {
	ctx := context.Background()
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 350, TargetSegments: 640, Jitter: 0.15, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	// 100 recorded snapshots stand in for a day of detector data: early
	// ones are the quiet ramp-up, late ones the fully developed peak.
	snaps, err := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{
		Vehicles: 2200, Steps: 1200, RecordEvery: 12, Hotspots: 6, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%6s %12s %8s %8s %14s\n", "t", "mean dens", "best k", "ANS", "supernodes")
	for _, t := range []int{4, 24, 49, 74, 99} {
		// Smooth each instant over a 3-snapshot window, like a 5-minute
		// detector aggregate.
		snap, err := roadpart.AverageDensities(snaps[max(t-2, 0):t+1], 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := roadpart.ApplyDensities(net, snap); err != nil {
			log.Fatal(err)
		}
		var sum float64
		for _, v := range snap {
			sum += v
		}
		mean := sum / float64(len(snap))

		p, err := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		bestK, sweep, err := p.BestKByANSCtx(ctx, 2, 9) // kMax clamps to the supernode count

		if err != nil {
			log.Fatal(err)
		}
		for _, pt := range sweep {
			if pt.K == bestK {
				fmt.Printf("%6d %12.5f %8d %8.4f %14d\n", t, mean, bestK, pt.Result.Report.ANS, len(p.SG.Nodes))
			}
		}
	}
	// Output:
	//      t    mean dens   best k      ANS     supernodes
	//      4      0.03457        3   0.2301             47
	//     24      0.03369        8   0.1777             22
	//     49      0.03329        9   0.2397             16
	//     74      0.03341        2   0.0802             45
	//     99      0.03325        9   0.3774             51
}

// ExampleBaselineJiGeroliminis runs every partitioning scheme — the
// paper's α-Cut variants (AG, ASG), the normalized-cut variants (NG,
// NSG) and the Ji & Geroliminis baseline — on one congested city.
// Higher inter and lower intra/GDBI/ANS are better; the α-Cut schemes
// dominate normalized cut, as in the paper's Table 2.
func ExampleBaselineJiGeroliminis() {
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 300, TargetSegments: 550, Jitter: 0.15, Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	snaps, err := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{Vehicles: 1800, Hotspots: 6, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snaps[len(snaps)-1]); err != nil {
		log.Fatal(err)
	}

	const k = 6
	fmt.Printf("%-16s %8s %8s %8s %8s\n", "scheme", "inter", "intra", "GDBI", "ANS")
	row := func(name string, rep roadpart.Report) {
		fmt.Printf("%-16s %8.4f %8.4f %8.4f %8.4f\n", name, rep.Inter, rep.Intra, rep.GDBI, rep.ANS)
	}
	for _, scheme := range []roadpart.Scheme{roadpart.AG, roadpart.NG, roadpart.ASG, roadpart.NSG} {
		res, err := roadpart.PartitionCtx(context.Background(), net, roadpart.Config{K: k, Scheme: scheme, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		row(scheme.String(), res.Report)
	}

	// The baseline works on the road graph directly.
	g, err := roadpart.DualGraph(net)
	if err != nil {
		log.Fatal(err)
	}
	f := net.Densities()
	assign, err := roadpart.BaselineJiGeroliminis(g, f, k, 3)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := roadpart.Evaluate(f, assign, g)
	if err != nil {
		log.Fatal(err)
	}
	row("Ji&Geroliminis", rep)
	// Output:
	// scheme              inter    intra     GDBI      ANS
	// AG                 0.4342   0.0571   7.3309   0.4593
	// NG                 0.2143   0.0582   4.6423   0.5259
	// ASG                0.5163   0.1476   0.4844   0.2516
	// NSG                0.5304   0.1452   0.5204   0.2301
	// Ji&Geroliminis     0.2175   0.1225   1.7504   0.4053
}

// ExampleLoadNetwork is the integration path for real data: build a road
// network by hand (as from a city's GIS export), attach observed
// densities, round-trip it through the on-disk JSON format, and
// partition it. The jammed western and free-flowing eastern halves of
// the corridor separate.
func ExampleLoadNetwork() {
	// Two parallel two-way avenues joined by two-way cross streets.
	net := &roadpart.Network{}
	const cols = 8
	for r := 0; r < 2; r++ {
		for c := 0; c < cols; c++ {
			net.Intersections = append(net.Intersections, roadpart.Intersection{
				ID: r*cols + c, X: float64(c) * 150, Y: float64(r) * 200,
			})
		}
	}
	addTwoWay := func(a, b int, length float64) {
		for _, dir := range [][2]int{{a, b}, {b, a}} {
			net.Segments = append(net.Segments, roadpart.Segment{
				ID: len(net.Segments), From: dir[0], To: dir[1], Length: length,
			})
		}
	}
	for r := 0; r < 2; r++ {
		for c := 0; c+1 < cols; c++ {
			addTwoWay(r*cols+c, r*cols+c+1, 150)
		}
	}
	for c := 0; c < cols; c++ {
		addTwoWay(c, cols+c, 200)
	}

	// Observed densities: jammed west, free-flowing east.
	const half = 150 * cols / 2
	densities := make([]float64, len(net.Segments))
	for i := range net.Segments {
		if x, _ := net.SegmentMidpoint(i); x < half {
			densities[i] = 0.09 + 0.01*float64(i%3)
		} else {
			densities[i] = 0.01 + 0.002*float64(i%3)
		}
	}
	if err := net.SetDensities(densities); err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "customnet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corridor.json")
	if err := roadpart.SaveNetwork(net, path); err != nil {
		log.Fatal(err)
	}
	loaded, err := roadpart.LoadNetwork(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round-tripped %s: %d intersections, %d segments\n",
		filepath.Base(path), len(loaded.Intersections), len(loaded.Segments))

	// α-Cut directly on the road graph (AG) suits networks this small.
	res, err := roadpart.PartitionCtx(context.Background(), loaded, roadpart.Config{K: 2, Scheme: roadpart.AG, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=2 partition quality: inter=%.4f intra=%.4f ANS=%.4f\n",
		res.Report.Inter, res.Report.Intra, res.Report.ANS)
	west, east := map[int]int{}, map[int]int{}
	for seg, part := range res.Assign {
		if x, _ := loaded.SegmentMidpoint(seg); x < half {
			west[part]++
		} else {
			east[part]++
		}
	}
	fmt.Printf("western (jammed) segments by partition: %v\n", west)
	fmt.Printf("eastern (free) segments by partition:   %v\n", east)
	// Output:
	// round-tripped corridor.json: 16 intersections, 44 segments
	// k=2 partition quality: inter=0.0881 intra=0.0056 ANS=0.0631
	// western (jammed) segments by partition: map[0:24]
	// eastern (free) segments by partition:   map[1:20]
}

// ExampleBuildHierarchy partitions hierarchically: the city splits into
// top-level regions, each region into districts, districts into
// corridors, and the tree can be cut at whatever depth a
// traffic-management decision needs.
func ExampleBuildHierarchy() {
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 500, TargetSegments: 950, Jitter: 0.15, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	snaps, err := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{Vehicles: 3200, Hotspots: 6, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snaps[len(snaps)-1]); err != nil {
		log.Fatal(err)
	}

	root, err := roadpart.BuildHierarchy(net, roadpart.HierarchyConfig{
		Scheme: roadpart.ASG, MaxDepth: 3, MinSize: 40, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("region tree:", root.Describe())

	g, err := roadpart.DualGraph(net)
	if err != nil {
		log.Fatal(err)
	}
	f := net.Densities()
	fmt.Printf("%6s %8s %10s\n", "level", "regions", "ANS")
	for level := 1; level <= 3; level++ {
		assign, k := root.FlattenLevel(level)
		rep, err := roadpart.Evaluate(f, assign, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %8d %10.4f\n", level, k, rep.ANS)
	}

	leaves := root.Leaves()
	fmt.Println("leaf regions by congestion:")
	for _, leaf := range leaves[:4] {
		fmt.Printf("  depth %d: %4d segments, mean density %.4f veh/m\n", leaf.Depth, len(leaf.Members), leaf.MeanDensity)
	}
	fmt.Printf("  … and %d more\n", len(leaves)-4)
	// Output:
	// region tree: 950 segments, 10 leaf regions, depth 3
	//  level  regions        ANS
	//      1        4     0.0572
	//      2        9     0.2259
	//      3       10     0.2371
	// leaf regions by congestion:
	//   depth 3:  917 segments, mean density 0.0101 veh/m
	//   depth 3:    2 segments, mean density 0.3641 veh/m
	//   depth 2:    5 segments, mean density 0.8417 veh/m
	//   depth 2:    1 segments, mean density 0.3020 veh/m
	//   … and 6 more
}

// ExampleMatchDensities is the paper's data pipeline end to end (Section
// 6.1): the simulator emits noisy GPS trajectories, map matching
// reconstructs per-segment densities from them, and the partition of the
// reconstructed field is compared with the partition of ground truth.
// Noisy probe data recovers nearly the same congestion regions as
// perfect detectors.
func ExampleMatchDensities() {
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 300, TargetSegments: 540, Jitter: 0.1, Seed: 27,
	})
	if err != nil {
		log.Fatal(err)
	}
	// 100 recorded timestamps, like the paper's MNTG traces.
	cfg := roadpart.TrafficConfig{Vehicles: 1600, Steps: 400, RecordEvery: 4, Hotspots: 5, Seed: 3}
	truthSnaps, err := roadpart.SimulateTraffic(net, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The same simulation observed only through 8 m-noise GPS fixes.
	trajs, err := roadpart.SimulateTrajectories(net, cfg, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d probe vehicles, %d samples each\n", len(trajs), len(trajs[0]))
	maxT := len(truthSnaps) - 1
	recSnaps, err := roadpart.MatchDensities(net, trajs, maxT, 40)
	if err != nil {
		log.Fatal(err)
	}

	at := maxT * 71 / 100 // the paper's t=71-style snapshot
	truth, rec := truthSnaps[at], recSnaps[at]
	var num, den float64
	for i := range truth {
		d := truth[i] - rec[i]
		num += d * d
		den += truth[i] * truth[i]
	}
	fmt.Printf("density reconstruction relative RMS error: %.1f%%\n", 100*math.Sqrt(num/den))

	partition := func(name string, snap roadpart.Snapshot) []int {
		if err := roadpart.ApplyDensities(net, snap); err != nil {
			log.Fatal(err)
		}
		res, err := roadpart.PartitionCtx(context.Background(), net, roadpart.Config{K: 5, Scheme: roadpart.ASG, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s ANS=%.4f inter=%.4f intra=%.4f\n", name, res.Report.ANS, res.Report.Inter, res.Report.Intra)
		return res.Assign
	}
	ari, err := roadpart.PartitionSimilarity(partition("ground-truth density:", truth), partition("map-matched density:", rec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region agreement (ARI): %.3f\n", ari)
	// Output:
	// fleet: 1600 probe vehicles, 100 samples each
	// density reconstruction relative RMS error: 17.8%
	// ground-truth density:  ANS=0.4349 inter=0.4477 intra=0.1951
	// map-matched density:   ANS=0.5837 inter=0.3217 intra=0.1819
	// region agreement (ARI): 0.717
}

// ExampleSimulateTraffic_rushHour shows why Section 2.1 models the two
// directions of a two-way road as separate segments: morning traffic
// flows toward the hotspots and evening traffic away from them, so one
// physical road can be jammed in one direction and free in the other,
// and the optimal congestion regions of the two peaks differ.
func ExampleSimulateTraffic_rushHour() {
	ctx := context.Background()
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 250, TargetSegments: 900, Jitter: 0.1, Seed: 19, // ≈ all roads two-way
	})
	if err != nil {
		log.Fatal(err)
	}
	simulate := func(outbound bool) roadpart.Snapshot {
		snaps, err := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{
			Vehicles: 2200, Hotspots: 3, WanderFrac: 0.25, Outbound: outbound, Seed: 6, // same fleet, opposite intent
		})
		if err != nil {
			log.Fatal(err)
		}
		snap, err := roadpart.AverageDensities(snaps, 5)
		if err != nil {
			log.Fatal(err)
		}
		return snap
	}
	morning, evening := simulate(false), simulate(true)

	// Directional asymmetry between the two directions of each road.
	type key struct{ from, to int }
	reverse := map[key]int{}
	for i, s := range net.Segments {
		reverse[key{s.From, s.To}] = i
	}
	var pairs, asym float64
	for i, s := range net.Segments {
		if j, ok := reverse[key{s.To, s.From}]; ok && j > i {
			pairs++
			asym += math.Abs(morning[i] - morning[j])
		}
	}
	fmt.Printf("two-way road pairs: %.0f\n", pairs)
	fmt.Printf("mean |density(dir1) - density(dir2)| in the morning peak: %.4f veh/m\n", asym/pairs)

	partition := func(name string, snap roadpart.Snapshot) []int {
		if err := roadpart.ApplyDensities(net, snap); err != nil {
			log.Fatal(err)
		}
		p, err := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		bestK, _, err := p.BestKByANSCtx(ctx, 2, 8)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.PartitionKCtx(ctx, bestK)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s peak: k=%d ANS=%.4f\n", name, res.K, res.Report.ANS)
		return res.Assign
	}
	ari, err := roadpart.PartitionSimilarity(partition("morning", morning), partition("evening", evening))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("morning vs evening region agreement (ARI): %.3f\n", ari)
	// Output:
	// two-way road pairs: 432
	// mean |density(dir1) - density(dir2)| in the morning peak: 0.0068 veh/m
	// morning peak: k=3 ANS=0.0348
	// evening peak: k=2 ANS=0.0382
	// morning vs evening region agreement (ARI): -0.002
}

// ExampleSimulateODTraffic drives a monocentric ring-and-spoke city with
// origin–destination commuters who follow shortest routes to hotspot
// destinations. That concentrates congestion on arterials, and the
// partitioner separates a small jammed region from the calm remainder.
func ExampleSimulateODTraffic() {
	ctx := context.Background()
	net, err := roadpart.GenerateRadialCity(roadpart.RadialConfig{Rings: 12, Spokes: 18, TwoWay: true, Jitter: 0.05, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("radial city: %d intersections, %d directed segments\n", len(net.Intersections), len(net.Segments))
	snaps, err := roadpart.SimulateODTraffic(net, roadpart.ODTrafficConfig{
		Vehicles: 1800, Steps: 500, Hotspots: 3, HotspotBias: 0.7, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	snap, err := roadpart.AverageDensities(snaps, 5)
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snap); err != nil {
		log.Fatal(err)
	}

	p, err := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	bestK, _, err := p.BestKByANSCtx(ctx, 2, 8)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.PartitionKCtx(ctx, bestK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned into %d regions (ANS=%.4f)\n", res.K, res.Report.ANS)
	fmt.Printf("%8s %10s %14s %16s\n", "region", "segments", "mean density", "mean radius (m)")
	n := make([]int, res.K)
	dens := make([]float64, res.K)
	radius := make([]float64, res.K)
	for seg, part := range res.Assign {
		x, y := net.SegmentMidpoint(seg)
		n[part]++
		dens[part] += net.Segments[seg].Density
		radius[part] += math.Hypot(x, y)
	}
	for i := range n {
		fmt.Printf("%8d %10d %14.4f %16.0f\n", i, n[i], dens[i]/float64(n[i]), radius[i]/float64(n[i]))
	}
	// Output:
	// radial city: 217 intersections, 864 directed segments
	// partitioned into 2 regions (ANS=0.2794)
	//   region   segments   mean density  mean radius (m)
	//        0        851         0.0082              928
	//        1         13         0.3414             1068
}

// ExampleRenderPartitionsSVG renders a congested city and its
// congestion partitions as SVG maps, the visual counterpart of the
// paper's partition figures. Any io.Writer works; write to a file to
// open the maps in a browser.
func ExampleRenderPartitionsSVG() {
	ctx := context.Background()
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 600, TargetSegments: 1100, Jitter: 0.2, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}
	snaps, err := roadpart.SimulateTraffic(net, roadpart.TrafficConfig{Vehicles: 3000, Hotspots: 5, Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	if err := roadpart.ApplyDensities(net, snaps[len(snaps)-1]); err != nil {
		log.Fatal(err)
	}
	p, err := roadpart.NewPipelineCtx(ctx, net, roadpart.Config{Scheme: roadpart.ASG, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	bestK, _, err := p.BestKByANSCtx(ctx, 2, 9)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.PartitionKCtx(ctx, bestK)
	if err != nil {
		log.Fatal(err)
	}

	var density, partitions bytes.Buffer
	if err := roadpart.RenderDensitiesSVG(&density, net, "traffic density (red = congested)"); err != nil {
		log.Fatal(err)
	}
	title := fmt.Sprintf("congestion partitions (k=%d, ANS=%.3f)", res.K, res.Report.ANS)
	if err := roadpart.RenderPartitionsSVG(&partitions, net, res.Assign, title); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("density.svg: %d bytes, %d segments\n", density.Len(), strings.Count(density.String(), "<line "))
	fmt.Printf("partitions.svg: %d bytes, %d segments, %d legend entries\n",
		partitions.Len(), strings.Count(partitions.String(), "<line "), strings.Count(partitions.String(), ">region "))
	fmt.Println(title)
	// Output:
	// density.svg: 122939 bytes, 1100 segments
	// partitions.svg: 124223 bytes, 1100 segments, 9 legend entries
	// congestion partitions (k=9, ANS=0.168)
}

// ExampleValidatePartition demonstrates checking conditions C.1–C.2 on an
// arbitrary assignment.
func ExampleValidatePartition() {
	net, err := roadpart.GenerateCity(roadpart.CityConfig{
		TargetIntersections: 30, TargetSegments: 50, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := roadpart.DualGraph(net)
	if err != nil {
		log.Fatal(err)
	}
	all := make([]int, len(net.Segments)) // the trivial single partition
	fmt.Println("trivial partition valid:", roadpart.ValidatePartition(g, all) == nil)
	// Output: trivial partition valid: true
}
