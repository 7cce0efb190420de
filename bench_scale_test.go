// Scale-tier benchmarks: how partitioning cost grows from city-sized
// networks into the million-segment regime the multilevel path exists
// for (docs/SCALING.md). Each op is a full cold pipeline — dual graph,
// coarsening when it engages, spectral cut, projection, refinement —
// and each sub-benchmark reports the peak heap it observed above the
// loaded network as a peakMB metric, so BENCH_<n>.json snapshots pin
// memory alongside time.
package roadpart

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/obs"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// scaleNets memoizes the most recently used tier fixture: generating the
// L network once costs seconds and must not be attributed to the first
// benchmark iteration that needs it. It keeps one tier only, so a tier's
// peakMB does not grow with the networks of tiers that ran before it
// (the garbage collector lets the heap grow in proportion to what is
// live).
var scaleNets struct {
	sync.Mutex
	tier gen.Tier
	net  *roadnet.Network
}

func scaleNet(tb testing.TB, tier gen.Tier) *roadnet.Network {
	tb.Helper()
	scaleNets.Lock()
	defer scaleNets.Unlock()
	if scaleNets.net != nil && scaleNets.tier == tier {
		return scaleNets.net
	}
	scaleNets.net = nil // release the previous tier before building this one
	net, err := gen.ScaleTier(tier, 1)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 5, Seed: 7919})
	if err != nil {
		tb.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		tb.Fatal(err)
	}
	scaleNets.tier, scaleNets.net = tier, net
	return net
}

// watchHeapPeak samples the heap high-water mark until the returned stop
// function is called, which reports it in MB above a baseline taken when
// watchHeapPeak is called. Sampling at 5ms catches the transient peaks
// (Lanczos blocks, contraction scratch) that a single end-of-run reading
// would miss. The baseline is read after collections that release what
// earlier work left pooled, and it counts the loaded tier network, so a
// tier reads the same whether it runs alone or after other tiers.
func watchHeapPeak(b *testing.B) (stop func()) {
	var ms runtime.MemStats
	// sync.Pools drop their items within two collections; the spare
	// Lanczos workspace is released by a finalizer after two and freed
	// by the third. The pauses let those finalizers run.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var ms runtime.MemStats
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-done:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		b.ReportMetric(float64(peak-base)/1e6, "peakMB")
	}
}

// BenchmarkScale is the scaling anchor recorded in BENCH_6.json: a full
// cold partition (AG, k=8, Seed 7, auto multilevel) per op at each
// tier. S and M sit under the auto threshold and measure the flat
// spectral path at growing n; L crosses it and measures the multilevel
// path end to end. XL is not benchmarked in-loop — run `make
// scale-smoke` (TestScaleSmokeXL) for the million-segment check. Each
// tier also reports residual, the mean roadpart_eigen_residual of the
// Lanczos solves its ops ran (benchdiff records it without gating it).
func BenchmarkScale(b *testing.B) {
	residual := obs.Default().Histogram("roadpart_eigen_residual", "", nil)
	tiers := []struct {
		name string
		tier gen.Tier
	}{
		{"tier=S", gen.TierS},
		{"tier=M", gen.TierM},
		{"tier=L", gen.TierL},
	}
	for _, tc := range tiers {
		b.Run(tc.name, func(b *testing.B) {
			net := scaleNet(b, tc.tier)
			b.ReportAllocs()
			stop := watchHeapPeak(b)
			solves, sum := residual.Count(), residual.Sum()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := core.NewPipeline(net, core.Config{Scheme: core.AG, K: 8, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.PartitionKCtx(context.Background(), 8); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop()
			if n := residual.Count() - solves; n > 0 {
				b.ReportMetric((residual.Sum()-sum)/float64(n), "residual")
			}
		})
	}
}

// TestScaleSmokeXL drives the XL tier — over a million directed
// segments, so over a million dual-graph nodes — through the auto
// multilevel path once, end to end. It is the acceptance check that the
// million-segment regime completes without dense n×n scratch; it runs
// only when ROADPART_SCALE_SMOKE=1 (see `make scale-smoke`) because
// generating and partitioning XL takes minutes, not test-suite seconds.
func TestScaleSmokeXL(t *testing.T) {
	if os.Getenv("ROADPART_SCALE_SMOKE") != "1" {
		t.Skip("set ROADPART_SCALE_SMOKE=1 (make scale-smoke) to run the XL smoke")
	}
	start := time.Now()
	net := scaleNet(t, gen.TierXL)
	st := net.Stats()
	t.Logf("XL network: %d intersections, %d segments (generated in %v)",
		st.Intersections, st.Segments, time.Since(start))
	if st.Segments < 1_000_000 {
		t.Fatalf("XL tier produced %d segments, want >= 1e6", st.Segments)
	}

	start = time.Now()
	p, err := core.NewPipeline(net, core.Config{Scheme: core.AG, K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	build := time.Since(start)
	if lv := p.MultilevelLevels(); lv < 2 {
		t.Fatalf("XL pipeline built %d multilevel levels; auto mode did not engage", lv)
	}
	start = time.Now()
	res, err := p.PartitionKCtx(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 8 || len(res.Assign) != st.Segments {
		t.Fatalf("XL partition K=%d over %d nodes, want K=8 over %d", res.K, len(res.Assign), st.Segments)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("XL partition: levels=%d build=%v partition=%v ANS=%.4f K'=%d heap=%.0fMB",
		p.MultilevelLevels(), build, time.Since(start), res.Report.ANS, res.KPrime,
		float64(ms.HeapAlloc)/1e6)
}
