package core

import (
	"context"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/obs"
	"roadpart/internal/traffic"
)

// TestObservabilityDoesNotPerturbOutput pins that instrumentation is
// purely observational: a full sweep with recording enabled and one with
// recording disabled produce bit-identical assignments at every k, for
// both serial and parallel execution. This is the determinism guarantee
// from the parallel-execution layer extended over the obs layer.
func TestObservabilityDoesNotPerturbOutput(t *testing.T) {
	net, err := gen.City(gen.CityConfig{TargetIntersections: 120, TargetSegments: 220, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		t.Fatal(err)
	}

	sweep := func(workers int) [][]int {
		cfg := Config{Scheme: ASG, Seed: 5, Refine: true, Workers: workers}
		p, err := NewPipeline(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := p.SweepKCtx(context.Background(), 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int, len(pts))
		for i, pt := range pts {
			out[i] = pt.Result.Assign
		}
		return out
	}

	obs.SetEnabled(true)
	onSerial := sweep(1)
	onParallel := sweep(4)

	obs.SetEnabled(false)
	offSerial := sweep(1)
	obs.SetEnabled(true)

	for i := range onSerial {
		if !equalInts(onSerial[i], offSerial[i]) {
			t.Fatalf("k=%d: assignments differ with obs on vs off", i+2)
		}
		if !equalInts(onSerial[i], onParallel[i]) {
			t.Fatalf("k=%d: assignments differ serial vs parallel with obs on", i+2)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
