package temporal

import (
	"context"
	"testing"

	"roadpart/internal/core"
)

// KeepANS = 0 selects the 0.8 default; "never re-split" is spelled as a
// negative threshold (ANS is non-negative). These tests pin both halves.

func TestDefaultsPreserveNegativeKeepANS(t *testing.T) {
	cfg := Config{KeepANS: -1}
	cfg.defaults()
	if cfg.KeepANS != -1 {
		t.Fatalf("defaults rewrote KeepANS to %v, want -1 preserved", cfg.KeepANS)
	}
	if cfg.KMax != 10 || cfg.SubKMax != 4 {
		t.Fatalf("defaults: KMax=%d SubKMax=%d, want 10 and 4", cfg.KMax, cfg.SubKMax)
	}
	zero := Config{}
	zero.defaults()
	if zero.KeepANS != 0.8 {
		t.Fatalf("zero KeepANS selected %v, want default 0.8", zero.KeepANS)
	}
}

func TestDistributedNegativeKeepANSFreezesSeedRegions(t *testing.T) {
	net, snaps := simCity(t)
	frames, err := RunCtx(context.Background(), net, snaps, []int{2, 5, 9}, ModeDistributed,
		Config{Scheme: core.ASG, Seed: 1, KeepANS: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(frames))
	}
	// With re-splitting disabled every later frame must reproduce the
	// seed frame's regions exactly.
	seed := frames[0].Assign
	for i := 1; i < len(frames); i++ {
		if len(frames[i].Assign) != len(seed) {
			t.Fatalf("frame %d covers %d segments, seed %d", i, len(frames[i].Assign), len(seed))
		}
		for v := range seed {
			if frames[i].Assign[v] != seed[v] {
				t.Fatalf("frame %d reassigned segment %d despite KeepANS < 0", i, v)
			}
		}
		if frames[i].ARIvsPrev != 1 {
			t.Fatalf("frame %d ARI = %v, want 1 for frozen regions", i, frames[i].ARIvsPrev)
		}
	}
}
