package temporal

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/metrics"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// simCity returns a small congested city plus recorded snapshots.
func simCity(t *testing.T) (*roadnet.Network, []traffic.Snapshot) {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 120, TargetSegments: 220, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := traffic.Simulate(net, traffic.SimConfig{
		Vehicles: 700, Steps: 300, RecordEvery: 30, Hotspots: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, snaps
}

func TestRunGlobalMode(t *testing.T) {
	net, snaps := simCity(t)
	frames, err := RunCtx(context.Background(), net, snaps, []int{2, 5, 9}, ModeGlobal, Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(frames))
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if len(fr.Assign) != len(net.Segments) {
			t.Fatalf("frame %d covers %d segments", i, len(fr.Assign))
		}
		if err := metrics.ValidatePartition(g, fr.Assign); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.K < 1 {
			t.Fatalf("frame %d has K=%d", i, fr.K)
		}
		if i > 0 && (fr.ARIvsPrev < -0.5 || fr.ARIvsPrev > 1.000001) {
			t.Fatalf("frame %d ARI out of range: %v", i, fr.ARIvsPrev)
		}
	}
	if !math.IsNaN(frames[0].ARIvsPrev) {
		t.Fatalf("first frame has no predecessor: ARI must be NaN, got %v", frames[0].ARIvsPrev)
	}
}

func TestRunDistributedRefinesFirstFrame(t *testing.T) {
	net, snaps := simCity(t)
	frames, err := RunCtx(context.Background(), net, snaps, []int{3, 6, 9}, ModeDistributed, Config{Scheme: core.ASG, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if err := metrics.ValidatePartition(g, fr.Assign); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// Distributed refinement only splits regions, so later frames have at
	// least as many partitions as the first.
	for i := 1; i < len(frames); i++ {
		if frames[i].K < frames[0].K {
			t.Fatalf("distributed frame %d has fewer partitions (%d) than the seed frame (%d)",
				i, frames[i].K, frames[0].K)
		}
	}
}

func TestRunDistributedNesting(t *testing.T) {
	// Every later-frame partition must be contained in one seed-frame
	// region (the distributed regime never moves segments across the
	// initial boundaries).
	net, snaps := simCity(t)
	frames, err := RunCtx(context.Background(), net, snaps, []int{3, 9}, ModeDistributed, Config{Scheme: core.ASG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seed, refined := frames[0].Assign, frames[1].Assign
	owner := map[int]int{}
	for v := range refined {
		if prev, ok := owner[refined[v]]; ok {
			if prev != seed[v] {
				t.Fatalf("refined partition %d spans seed regions %d and %d", refined[v], prev, seed[v])
			}
		} else {
			owner[refined[v]] = seed[v]
		}
	}
}

func TestRunErrors(t *testing.T) {
	net, snaps := simCity(t)
	if _, err := RunCtx(context.Background(), net, snaps, nil, ModeGlobal, Config{}); err == nil {
		t.Fatal("empty index list should error")
	}
	if _, err := RunCtx(context.Background(), net, snaps, []int{99}, ModeGlobal, Config{}); err == nil {
		t.Fatal("out-of-range snapshot index should error")
	}
}

func TestRunFixedK(t *testing.T) {
	net, snaps := simCity(t)
	frames, err := RunCtx(context.Background(), net, snaps, []int{5}, ModeGlobal, Config{Scheme: core.AG, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if frames[0].K != 3 {
		t.Fatalf("K = %d, want 3", frames[0].K)
	}
}

// TestFixedKAboveKMax: KMax bounds only automatic k selection, so a fixed
// K above it must be honored in both modes (clamped only to what the
// pipeline can produce).
func TestFixedKAboveKMax(t *testing.T) {
	net, snaps := simCity(t)
	for _, mode := range []Mode{ModeGlobal, ModeDistributed} {
		tr, err := NewTracker(net, mode, Config{Scheme: core.AG, K: 12, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := tr.Step(context.Background(), snaps[2])
		if err != nil {
			t.Fatal(err)
		}
		if fr.K != 12 {
			t.Fatalf("mode %d: K = %d, want the fixed 12 above the default KMax 10", mode, fr.K)
		}
	}
}
