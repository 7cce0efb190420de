package core_test

import (
	"context"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/experiments"
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
