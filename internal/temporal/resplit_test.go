package temporal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/roadnet"
)

// sameFrame reports whether two frames carry the same partition, the
// same quality report bit for bit, and the same compute path.
func sameFrame(a, b Frame) bool {
	if a.K != b.K || a.Path != b.Path || len(a.Assign) != len(b.Assign) {
		return false
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	ra, rb := a.Report, b.Report
	return ra.K == rb.K &&
		math.Float64bits(ra.Inter) == math.Float64bits(rb.Inter) &&
		math.Float64bits(ra.Intra) == math.Float64bits(rb.Intra) &&
		math.Float64bits(ra.GDBI) == math.Float64bits(rb.GDBI) &&
		math.Float64bits(ra.ANS) == math.Float64bits(rb.ANS)
}

// regionSegments groups segments by their seed-frame label.
func regionSegments(assign []int, k int) [][]int {
	regions := make([][]int, k)
	for v, l := range assign {
		regions[l] = append(regions[l], v)
	}
	return regions
}

// TestTrackerWorkersBitIdentical is the Workers=1 == Workers=N property
// for the stream: over seeded delta sequences that touch one to four
// seed regions per step, after a first re-split that recomputes every
// region, trackers re-splitting serially and on four goroutines produce
// the same frames — partition, report and compute path. It runs under
// -short, so the race pass exercises the concurrent re-split.
func TestTrackerWorkersBitIdentical(t *testing.T) {
	net, snaps := simCity(t)
	ctx := context.Background()
	for _, tc := range []struct {
		scheme core.Scheme
		seed   uint64
	}{{core.ASG, 1}, {core.AG, 2}, {core.ASG, 3}} {
		cfg := Config{Scheme: tc.scheme, K: 6, Seed: tc.seed}
		trackers := make([]*Tracker, 2)
		for i, w := range []int{1, 4} {
			cfg.Workers = w
			tr, err := NewTracker(net, ModeDistributed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			trackers[i] = tr
		}
		step := func(what string, do func(tr *Tracker) (Frame, error)) Frame {
			t.Helper()
			var frames [2]Frame
			for i, tr := range trackers {
				fr, err := do(tr)
				if err != nil {
					t.Fatalf("seed %d %s: %v", tc.seed, what, err)
				}
				frames[i] = fr
			}
			if !sameFrame(frames[0], frames[1]) {
				t.Fatalf("seed %d %s: Workers=1 frame %+v, Workers=4 frame %+v", tc.seed, what, frames[0].Report, frames[1].Report)
			}
			return frames[0]
		}
		seedFrame := step("seed frame", func(tr *Tracker) (Frame, error) { return tr.Step(ctx, snaps[0]) })
		if seedFrame.K < 4 {
			t.Fatalf("seed %d: seed frame has %d regions, the property needs several", tc.seed, seedFrame.K)
		}
		if fr := step("first re-split", func(tr *Tracker) (Frame, error) { return tr.Step(ctx, snaps[1]) }); fr.Path != PathFull {
			t.Fatalf("seed %d: first re-split took path %q, want %q", tc.seed, fr.Path, PathFull)
		}
		regions := regionSegments(seedFrame.Assign, seedFrame.K)
		rng := rand.New(rand.NewSource(int64(tc.seed)))
		for s := 0; s < 8; s++ {
			var delta roadnet.DensityDelta
			for _, l := range rng.Perm(len(regions))[:1+rng.Intn(4)] {
				for c := 0; c < 1+rng.Intn(3); c++ {
					seg := regions[l][rng.Intn(len(regions[l]))]
					delta = append(delta, roadnet.DensityUpdate{Segment: seg, Density: 3 * rng.Float64()})
				}
			}
			step("delta", func(tr *Tracker) (Frame, error) { return tr.ApplyDelta(ctx, delta) })
		}
	}
}

// TestCancelledStepLeavesNoRegionState cancels a step after its first
// dirty region has re-split, then steps to densities that restore that
// region's values. The region must not replay the split it computed for
// the abandoned densities: the frame equals a fresh tracker's.
func TestCancelledStepLeavesNoRegionState(t *testing.T) {
	net, snaps := simCity(t)
	cfg := Config{Scheme: core.ASG, K: 5, Seed: 4, Workers: 1}
	tr, err := NewTracker(net, ModeDistributed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seedFrame, err := tr.Step(ctx, snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(ctx, snaps[1]); err != nil {
		t.Fatal(err)
	}
	regions := regionSegments(seedFrame.Assign, seedFrame.K)
	// Congest the lower-numbered half of region 0, which moves its
	// split, and nudge one segment of region 1, so the step has two
	// dirty regions and region 0 re-splits first.
	abandoned := append([]float64(nil), snaps[1]...)
	for _, v := range regions[0][:len(regions[0])/2] {
		abandoned[v] = 5
	}
	nudged := regions[1][0]
	abandoned[nudged] += 0.5

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var done []int
	tr.splitDone = func(region int) {
		done = append(done, region)
		cancel()
	}
	_, err = tr.Step(cctx, abandoned)
	tr.splitDone = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step returned %v, want context.Canceled", err)
	}
	if len(done) != 1 || done[0] != 0 {
		t.Fatalf("regions split before the cancellation took hold: %v, want [0]", done)
	}
	if got := tr.Steps(); got != 2 {
		t.Fatalf("a failed step counted: %d steps, want 2", got)
	}

	// Region 0 back at snaps[1]'s values; region 1 keeps its nudge.
	restored := append([]float64(nil), snaps[1]...)
	restored[nudged] = abandoned[nudged]
	got, err := tr.Step(ctx, restored)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewTracker(net, ModeDistributed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Step(ctx, snaps[0]); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Step(ctx, restored)
	if err != nil {
		t.Fatal(err)
	}
	got.Path = want.Path // one re-split region against a full first re-split
	if !sameFrame(got, want) {
		t.Fatalf("frame after a cancelled step differs from a fresh tracker's: K %d vs %d, report %+v vs %+v", got.K, want.K, got.Report, want.Report)
	}
	// The comparison means something only if the abandoned densities
	// split region 0 differently.
	other, err := NewTracker(net, ModeDistributed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Step(ctx, snaps[0]); err != nil {
		t.Fatal(err)
	}
	stale, err := other.Step(ctx, abandoned)
	if err != nil {
		t.Fatal(err)
	}
	stale.Path = want.Path
	if sameFrame(stale, want) {
		t.Fatal("the abandoned densities split region 0 as the restored ones do; the test cannot see a stale split")
	}
}
