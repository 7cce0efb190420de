package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/experiments"
)

// TestMultilevelOffAndAutoMatchGoldens is the flat-path compatibility
// contract for the multilevel refactor: with Multilevel off — or in auto
// mode on graphs below the threshold, which is every benchmark dataset —
// the sweep output still matches the pre-context golden hashes bit for
// bit, at every worker count. The multilevel plumbing (Level interface,
// projection hook, MaxK clamp) must be invisible on the legacy path.
func TestMultilevelOffAndAutoMatchGoldens(t *testing.T) {
	schemes := map[string]core.Scheme{"AG": core.AG, "ASG": core.ASG}
	for _, name := range []string{"D1", "M1"} {
		ds, err := experiments.BuildDataset(name, experiments.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for schemeName, scheme := range schemes {
			want := preContextGolden[name+"/"+schemeName]
			for _, mode := range []core.MultilevelMode{core.MultilevelOff, core.MultilevelAuto} {
				for _, workers := range []int{1, 4} {
					cfg := core.Config{Scheme: scheme, Seed: 7, Workers: workers, Multilevel: mode}
					p, err := core.NewPipeline(ds.Net, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if lv := p.MultilevelLevels(); lv != 0 {
						t.Fatalf("%s/%s mode=%v: %d multilevel levels on the flat path", name, schemeName, mode, lv)
					}
					sweep, err := p.SweepKCtx(context.Background(), 2, 6)
					if err != nil {
						t.Fatal(err)
					}
					if got := sweepHash(sweep); got != want {
						t.Errorf("%s/%s mode=%v workers=%d: hash %#x, want golden %#x",
							name, schemeName, mode, workers, got, want)
					}
				}
			}
		}
	}
}

// TestMultilevelOnSmallGraphIsIdentity pins the degenerate forced-on
// case: D1's 420 dual nodes sit inside the coarsener's comfort zone, so
// MultilevelOn builds a one-level hierarchy whose projection is the
// identity — the goldens must still hold exactly.
func TestMultilevelOnSmallGraphIsIdentity(t *testing.T) {
	ds, err := experiments.BuildDataset("D1", experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for schemeName, scheme := range map[string]core.Scheme{"AG": core.AG, "ASG": core.ASG} {
		cfg := core.Config{Scheme: scheme, Seed: 7, Multilevel: core.MultilevelOn}
		p, err := core.NewPipeline(ds.Net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if lv := p.MultilevelLevels(); lv != 1 {
			t.Fatalf("D1 MultilevelOn: %d levels, want the 1-level identity hierarchy", lv)
		}
		sweep, err := p.SweepKCtx(context.Background(), 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := preContextGolden["D1/"+schemeName]
		if got := sweepHash(sweep); got != want {
			t.Errorf("D1/%s MultilevelOn: hash %#x, want golden %#x (identity hierarchy must not perturb output)",
				schemeName, got, want)
		}
	}
}

// TestMultilevelQualityWithinBound bounds the quality cost of
// coarsening: on M1 at full scale (17k dual nodes, 5 levels down to the
// spectral comfort zone) the multilevel ANS must stay within 10% of the
// flat spectral ANS. Measured at pinning time the multilevel path was
// actually *better* (0.88–0.90 vs 0.96–0.98 — coarse spectral cuts plus
// boundary refinement avoid the fragmentation the flat path repairs away
// into K'≈700 islands), so the bound has real slack without being loose.
func TestMultilevelQualityWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("M1 full-scale partition in -short mode")
	}
	ds, err := experiments.BuildDataset("M1", experiments.ScaleFull)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.AG, Seed: 7, Multilevel: core.MultilevelOff})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.AG, Seed: 7, Multilevel: core.MultilevelOn})
	if err != nil {
		t.Fatal(err)
	}
	if lv := multi.MultilevelLevels(); lv < 2 {
		t.Fatalf("M1 full MultilevelOn built only %d levels; coarsening is not engaging", lv)
	}
	for _, k := range []int{4, 8} {
		fr, err := flat.PartitionKCtx(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := multi.PartitionKCtx(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if mr.K != k {
			t.Fatalf("k=%d: multilevel produced K=%d", k, mr.K)
		}
		if len(mr.Assign) != len(fr.Assign) {
			t.Fatalf("k=%d: multilevel assigned %d nodes, flat %d", k, len(mr.Assign), len(fr.Assign))
		}
		if mr.Report.ANS > fr.Report.ANS*1.10 {
			t.Errorf("k=%d: multilevel ANS %.4f exceeds flat %.4f by more than 10%%",
				k, mr.Report.ANS, fr.Report.ANS)
		}
	}
}

// TestMultilevelDeterministic requires the full multilevel path —
// matching, contraction, coarse spectral cut, projection, boundary
// refinement — to be a pure function of (network, config): identical
// across repeated runs and across worker counts.
func TestMultilevelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("M1 full-scale partitions in -short mode")
	}
	ds, err := experiments.BuildDataset("M1", experiments.ScaleFull)
	if err != nil {
		t.Fatal(err)
	}
	var ref []int
	for run := 0; run < 2; run++ {
		for _, workers := range []int{1, 4} {
			cfg := core.Config{Scheme: core.AG, Seed: 7, Workers: workers, Multilevel: core.MultilevelOn}
			p, err := core.NewPipeline(ds.Net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.PartitionKCtx(context.Background(), 6)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res.Assign
				continue
			}
			for i := range ref {
				if res.Assign[i] != ref[i] {
					t.Fatalf("run=%d workers=%d: assignment differs at node %d", run, workers, i)
				}
			}
		}
	}
}

// TestMultilevelCancelledBuild asserts a cancelled context stops the
// pipeline during coarsening — before any spectral work — and that
// repeated cancelled multilevel runs leave no goroutines behind.
func TestMultilevelCancelledBuild(t *testing.T) {
	ds, err := experiments.BuildDataset("M1", experiments.ScaleFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Scheme: core.AG, Seed: 7, Workers: 4, Multilevel: core.MultilevelOn}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.NewPipelineCtx(ctx, ds.Net, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled NewPipelineCtx: %v, want context.Canceled", err)
	}

	base := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(round) * time.Millisecond)
			cancel()
		}()
		p, err := core.NewPipelineCtx(ctx, ds.Net, cfg)
		if err == nil {
			_, _ = p.SweepKCtx(ctx, 2, 8)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancelled multilevel runs: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMultilevelModeParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want core.MultilevelMode
	}{
		{"", core.MultilevelAuto}, {"auto", core.MultilevelAuto}, {"AUTO", core.MultilevelAuto},
		{"off", core.MultilevelOff}, {"Off", core.MultilevelOff},
		{"on", core.MultilevelOn}, {"ON", core.MultilevelOn},
	} {
		got, err := core.ParseMultilevelMode(tc.in)
		if err != nil {
			t.Errorf("ParseMultilevelMode(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParseMultilevelMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := core.ParseMultilevelMode("maybe"); err == nil {
		t.Error(`ParseMultilevelMode("maybe") accepted`)
	}
	for mode, want := range map[core.MultilevelMode]string{
		core.MultilevelAuto: "auto", core.MultilevelOff: "off", core.MultilevelOn: "on",
	} {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mode, got, want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, want := range []core.Scheme{core.AG, core.NG, core.ASG, core.NSG} {
		got, err := core.ParseScheme(want.String())
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if got != want {
			t.Fatalf("%s parsed to %v", want, got)
		}
	}
	for _, bad := range []string{"XYZ", "", "asg"} {
		if _, err := core.ParseScheme(bad); err == nil {
			t.Fatalf("ParseScheme(%q) accepted", bad)
		}
	}
}
