package roadpart

import (
	"context"
	"sort"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/experiments"
	"roadpart/internal/gen"
	"roadpart/internal/jiger"
	"roadpart/internal/metrics"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// These integration tests assert the paper's qualitative results — who
// wins, in which direction curves move — end to end at reduced scale, so
// a regression in any module that silently degrades partitioning quality
// breaks the build, not just the benchmark numbers.

// d1small builds the D1-like dataset once per test run.
func d1small(t *testing.T) *roadnet.Network {
	t.Helper()
	ds, err := experiments.BuildDataset("D1", experiments.ScaleFull) // D1 is small even at full scale
	if err != nil {
		t.Fatal(err)
	}
	return ds.Net
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// bestANSOverK returns the median-over-seeds ANS minimum over k for one
// scheme.
func bestANSOverK(t *testing.T, net *roadnet.Network, scheme core.Scheme, seeds, kMax int) float64 {
	t.Helper()
	best := -1.0
	for k := 2; k <= kMax; k++ {
		var vals []float64
		for seed := 1; seed <= seeds; seed++ {
			p, err := core.NewPipeline(net, core.Config{Scheme: scheme, Seed: uint64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			kk := k
			if p.SG != nil && len(p.SG.Nodes) < kk {
				kk = len(p.SG.Nodes)
			}
			res, err := p.PartitionKCtx(context.Background(), kk)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, res.Report.ANS)
		}
		if m := medianOf(vals); best < 0 || m < best {
			best = m
		}
	}
	return best
}

func TestPaperShapeAlphaCutBeatsNormalizedCut(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	net := d1small(t)
	const seeds, kMax = 5, 10
	agBest := bestANSOverK(t, net, core.AG, seeds, kMax)
	asgBest := bestANSOverK(t, net, core.ASG, seeds, kMax)
	ngBest := bestANSOverK(t, net, core.NG, seeds, kMax)
	// Table 2's ordering: both α-Cut schemes beat normalized cut.
	if agBest >= ngBest {
		t.Errorf("AG best ANS %.4f should beat NG %.4f", agBest, ngBest)
	}
	if asgBest >= ngBest {
		t.Errorf("ASG best ANS %.4f should beat NG %.4f", asgBest, ngBest)
	}
}

func TestPaperShapeBaselineBetweenSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	net := d1small(t)
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	f := net.Densities()
	// Ji & Geroliminis improves on plain NG (its adjustments exist for a
	// reason) — Table 2 has it between the α-Cut schemes and NG.
	best := -1.0
	for k := 2; k <= 8; k++ {
		var vals []float64
		for seed := 1; seed <= 3; seed++ {
			res, err := jiger.Partition(g, f, k, jiger.Options{Seed: uint64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			ans, err := metrics.ANS(f, res.Assign, g)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, ans)
		}
		if m := medianOf(vals); best < 0 || m < best {
			best = m
		}
	}
	asgBest := bestANSOverK(t, net, core.ASG, 3, 8)
	if best <= asgBest/4 {
		t.Errorf("baseline ANS %.4f implausibly better than ASG %.4f", best, asgBest)
	}
}

func TestFrameworkScalesMonotonically(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	// Total partitioning time should grow with network size (Table 3's
	// shape), and all partitions must validate on every size.
	var prev float64
	for _, size := range []int{300, 900, 2700} {
		net, err := gen.City(gen.CityConfig{TargetIntersections: size, TargetSegments: size * 9 / 5, Seed: uint64(size)})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := traffic.ApplySnapshot(net, snap); err != nil {
			t.Fatal(err)
		}
		res, err := core.Partition(net, core.Config{K: 5, Scheme: core.ASG, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, err := roadnet.DualGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := metrics.ValidatePartition(g, res.Assign); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		secs := res.Timing.Total.Seconds()
		// Only flag order-of-magnitude inversions; timers jitter.
		if prev > 0 && secs < prev/20 {
			t.Errorf("size %d took %.3fs, implausibly faster than smaller network (%.3fs)", size, secs, prev)
		}
		prev = secs
	}
}

func TestStressSchemesAcrossNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep in -short mode")
	}
	// Many random networks × all schemes × several k: everything must
	// produce valid partitions with the requested count.
	for _, seed := range []uint64{11, 22, 33} {
		net, err := gen.City(gen.CityConfig{
			TargetIntersections: 180 + int(seed),
			TargetSegments:      330 + 2*int(seed),
			Jitter:              0.15,
			Seed:                seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := traffic.ApplySnapshot(net, snap); err != nil {
			t.Fatal(err)
		}
		g, err := roadnet.DualGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []core.Scheme{core.AG, core.NG, core.ASG, core.NSG} {
			p, err := core.NewPipeline(net, core.Config{Scheme: scheme, Seed: seed})
			if err != nil {
				t.Fatalf("seed=%d %v: %v", seed, scheme, err)
			}
			for _, k := range []int{2, 5, 9} {
				kk := k
				if p.SG != nil && len(p.SG.Nodes) < kk {
					kk = len(p.SG.Nodes)
				}
				res, err := p.PartitionKCtx(context.Background(), kk)
				if err != nil {
					t.Fatalf("seed=%d %v k=%d: %v", seed, scheme, kk, err)
				}
				if res.K != kk {
					t.Fatalf("seed=%d %v: K=%d, want %d", seed, scheme, res.K, kk)
				}
				if err := metrics.ValidatePartition(g, res.Assign); err != nil {
					t.Fatalf("seed=%d %v k=%d: %v", seed, scheme, kk, err)
				}
			}
		}
	}
}

func TestMCGElbowExistsOnLargeNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	// Figure 5's shape: the supernode count at the MCG elbow is a small
	// fraction of the segment count (that reduction is the whole point of
	// the supergraph).
	data, err := experiments.Fig5(experiments.Options{Scale: experiments.ScaleSmall, KMin: 2, KMax: 10}, "M1")
	if err != nil {
		t.Fatal(err)
	}
	s := data.Series[0]
	ds, err := experiments.BuildDataset("M1", experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if s.ElbowSupernodes <= 0 || s.ElbowSupernodes >= len(ds.Net.Segments) {
		t.Fatalf("elbow supernodes = %d of %d segments", s.ElbowSupernodes, len(ds.Net.Segments))
	}
}
