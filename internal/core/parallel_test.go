package core_test

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/experiments"
	"roadpart/internal/gen"
	"roadpart/internal/traffic"
)

// TestSweepKDeterministicAcrossWorkers is the tentpole guarantee at the
// framework layer: a full k-sweep on a D1-scale network produces
// byte-identical assignments for Workers=1 and Workers=8 at the same
// seed, for direct and supergraph schemes alike.
func TestSweepKDeterministicAcrossWorkers(t *testing.T) {
	ds, err := experiments.BuildDataset("D1", experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []core.Scheme{core.AG, core.NG, core.ASG} {
		cfg := core.Config{Scheme: scheme, Seed: 7}

		cfg.Workers = 1
		serial, err := core.NewPipeline(ds.Net, cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		ref, err := serial.SweepKCtx(context.Background(), 2, 6)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}

		cfg.Workers = 8
		par, err := core.NewPipeline(ds.Net, cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		got, err := par.SweepKCtx(context.Background(), 2, 6)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}

		if len(got) != len(ref) {
			t.Fatalf("%v: %d sweep points, want %d", scheme, len(got), len(ref))
		}
		for i := range ref {
			if got[i].K != ref[i].K {
				t.Fatalf("%v: point %d has k=%d, want %d", scheme, i, got[i].K, ref[i].K)
			}
			a, b := ref[i].Result, got[i].Result
			if a.K != b.K || a.KPrime != b.KPrime {
				t.Fatalf("%v k=%d: K/KPrime %d/%d vs %d/%d", scheme, ref[i].K, a.K, a.KPrime, b.K, b.KPrime)
			}
			if a.Report.ANS != b.Report.ANS {
				t.Fatalf("%v k=%d: ANS %v != %v", scheme, ref[i].K, a.Report.ANS, b.Report.ANS)
			}
			for s := range a.Assign {
				if a.Assign[s] != b.Assign[s] {
					t.Fatalf("%v k=%d: Workers=1 and Workers=8 assignments differ at segment %d", scheme, ref[i].K, s)
				}
			}
		}
	}
}

// TestSweepKWorkersZeroMatchesSerial checks the default (Workers=0,
// GOMAXPROCS) against explicit serial on one scheme — the configuration
// every CLI and server request hits unless overridden.
func TestSweepKWorkersZeroMatchesSerial(t *testing.T) {
	ds, err := experiments.BuildDataset("D1", experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []core.SweepPoint {
		t.Helper()
		p, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.AG, Seed: 13, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := p.SweepKCtx(context.Background(), 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	ref, got := run(1), run(0)
	for i := range ref {
		for s := range ref[i].Result.Assign {
			if got[i].Result.Assign[s] != ref[i].Result.Assign[s] {
				t.Fatalf("k=%d: Workers=0 differs from Workers=1 at segment %d", ref[i].K, s)
			}
		}
	}
}

// TestPartitionWorkersOneMatchesTwoOnTeamSizedGraph partitions a flat AG
// city of about 9,000 segments, an operator past the two full chunks
// (linalg.ChunkLen) where the Lanczos solve starts a linalg.Team, at
// Workers 1 and 2: the assignment, k′ and the ANS bits must agree. It
// also samples the goroutine stacks during each run: Workers 2 must run
// a team helper, and Workers 1 none, since one worker is serial all the
// way down.
func TestPartitionWorkersOneMatchesTwoOnTeamSizedGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("two partitions of a 9,000-segment city")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	net, err := gen.City(gen.CityConfig{TargetIntersections: 5000, TargetSegments: 9000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*core.Result, bool) {
		t.Helper()
		stop, helped := make(chan struct{}), make(chan bool)
		go sampleTeamHelpers(stop, helped)
		res, err := core.Partition(net, core.Config{K: 8, Scheme: core.AG, Seed: 3, Workers: workers, Multilevel: core.MultilevelOff})
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
		return res, <-helped
	}
	ref, serialHelped := run(1)
	got, parallelHelped := run(2)
	if serialHelped {
		t.Fatal("Workers=1 ran a linalg.Team helper")
	}
	if !parallelHelped {
		t.Fatal("Workers=2 ran no linalg.Team helper: the operator is too small to test the team")
	}
	if got.K != ref.K || got.KPrime != ref.KPrime {
		t.Fatalf("K/KPrime %d/%d at Workers=2, %d/%d at Workers=1", got.K, got.KPrime, ref.K, ref.KPrime)
	}
	if math.Float64bits(got.Report.ANS) != math.Float64bits(ref.Report.ANS) {
		t.Fatalf("ANS %v at Workers=2, %v at Workers=1", got.Report.ANS, ref.Report.ANS)
	}
	for s := range ref.Assign {
		if got.Assign[s] != ref.Assign[s] {
			t.Fatalf("Workers=1 and Workers=2 assignments differ at segment %d", s)
		}
	}
}

// sampleTeamHelpers reads every goroutine's stack each millisecond until
// stop closes, then sends whether any of them was in linalg.Team's
// helper loop.
func sampleTeamHelpers(stop <-chan struct{}, helped chan<- bool) {
	buf := make([]byte, 1<<20)
	seen := false
	for {
		n := runtime.Stack(buf, true)
		seen = seen || bytes.Contains(buf[:n], []byte("linalg.(*Team).help"))
		select {
		case <-stop:
			helped <- seen
			return
		case <-time.After(time.Millisecond):
		}
	}
}
