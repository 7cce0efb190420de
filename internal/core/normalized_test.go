package core

import "testing"

// TestNormalizedMatchesDownstreamDefaults cross-checks the mining values
// pinned inside Config.Normalized against the packages that actually
// apply them, so a default changed downstream cannot silently
// desynchronize the cache-key canonicalization. The spectral defaults
// need no check: Normalized takes them from cut.Options.Normalized.
func TestNormalizedMatchesDownstreamDefaults(t *testing.T) {
	n := Config{Scheme: ASG}.Normalized()
	// supergraph.MineCtx: EpsThetaFrac 0 → 0.8; cluster.SweepKappaCtx:
	// KappaMax 0 → 25, SampleSize 0 → 2000. Pinned literals there.
	if n.EpsThetaFrac != 0.8 || n.KappaMax != 25 || n.SampleSize != 2000 {
		t.Fatalf("mining defaults = (%v, %d, %d), want (0.8, 25, 2000)",
			n.EpsThetaFrac, n.KappaMax, n.SampleSize)
	}
}

func TestNormalizedCanonicalizesIrrelevantFields(t *testing.T) {
	// Workers never changes output, so it must never split cache keys.
	a := Config{Scheme: ASG, K: 4, Workers: 1}.Normalized()
	b := Config{Scheme: ASG, K: 4, Workers: 8}.Normalized()
	if a != b {
		t.Fatalf("worker count split normalized configs: %+v vs %+v", a, b)
	}
	// AG/NG never run module 2, so mining knobs must not split keys.
	ag1 := Config{Scheme: AG, K: 4, KappaMax: 10, EpsThetaFrac: 0.5, StabilityEps: 0.2}.Normalized()
	ag2 := Config{Scheme: AG, K: 4}.Normalized()
	if ag1 != ag2 {
		t.Fatalf("unused mining fields split AG configs: %+v vs %+v", ag1, ag2)
	}
	// An absolute EpsTheta makes the fraction dead; it must be dropped.
	abs1 := Config{Scheme: ASG, EpsTheta: 0.4, EpsThetaFrac: 0.7}.Normalized()
	abs2 := Config{Scheme: ASG, EpsTheta: 0.4}.Normalized()
	if abs1 != abs2 {
		t.Fatalf("dead EpsThetaFrac split configs: %+v vs %+v", abs1, abs2)
	}
}

func TestNormalizedPreservesMeaningfulFields(t *testing.T) {
	c := Config{Scheme: NSG, K: 7, StabilityEps: 0.3, Refine: true, Seed: 99,
		Restarts: 2, DenseCutoff: -1}
	n := c.Normalized()
	if n.K != 7 || n.Scheme != NSG || n.StabilityEps != 0.3 || !n.Refine || n.Seed != 99 {
		t.Fatalf("meaningful fields mutated: %+v", n)
	}
	if n.Restarts != 2 {
		t.Fatalf("explicit Restarts overridden: %d", n.Restarts)
	}
	if n.DenseCutoff != -1 {
		t.Fatalf("negative DenseCutoff sentinel overridden: %d", n.DenseCutoff)
	}
}

func TestNormalizedCanonicalizesMultilevel(t *testing.T) {
	// Auto mode resolves the threshold default so two spellings of "auto
	// at the default threshold" share a cache key.
	auto := Config{Scheme: AG}.Normalized()
	if auto.Multilevel != MultilevelAuto || auto.MultilevelThreshold != DefaultMultilevelThreshold {
		t.Fatalf("auto normalized to (%v, %d), want (auto, %d)",
			auto.Multilevel, auto.MultilevelThreshold, DefaultMultilevelThreshold)
	}
	explicit := Config{Scheme: AG, MultilevelThreshold: DefaultMultilevelThreshold}.Normalized()
	if auto != explicit {
		t.Fatalf("default vs explicit threshold split configs: %+v vs %+v", auto, explicit)
	}
	// Off and On never read the threshold, so it must be zeroed out of
	// the key.
	off1 := Config{Scheme: AG, Multilevel: MultilevelOff, MultilevelThreshold: 5}.Normalized()
	off2 := Config{Scheme: AG, Multilevel: MultilevelOff}.Normalized()
	if off1 != off2 {
		t.Fatalf("dead threshold split Off configs: %+v vs %+v", off1, off2)
	}
	on := Config{Scheme: AG, Multilevel: MultilevelOn, MultilevelThreshold: 5}.Normalized()
	if on.MultilevelThreshold != 0 {
		t.Fatalf("On kept dead threshold %d", on.MultilevelThreshold)
	}
}
