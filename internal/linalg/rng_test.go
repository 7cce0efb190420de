package linalg

import "testing"

// TestRNGMatchesSplitMix64 pins the stream to the published SplitMix64
// reference outputs for state 0, so every seeded stage's draws stay
// those of the canonical generator.
func TestRNGMatchesSplitMix64(t *testing.T) {
	r := RNGFromState(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestRNGIncrementSkipsDraws pins the fast-forward the k-means restarts
// rely on: a stream started n increments ahead yields the draws of the
// original from its (n+1)-th on.
func TestRNGIncrementSkipsDraws(t *testing.T) {
	seed, n := uint64(0x5851f42d4c957f2d), uint64(7)
	a := RNGFromState(seed)
	for i := uint64(0); i < n; i++ {
		a.Uint64()
	}
	b := RNGFromState(seed + n*RNGIncrement)
	for i := 0; i < 5; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: skipped stream %#x, stepped stream %#x", i, y, x)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := RNGFromState(11)
	perm := p.Perm(20)
	seen := make([]bool, 20)
	for _, v := range perm {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[v] = true
	}
	// PermInto makes the same draws.
	q := RNGFromState(11)
	into := make([]int, 20)
	q.PermInto(into)
	for i := range perm {
		if into[i] != perm[i] {
			t.Fatalf("PermInto = %v, Perm = %v", into, perm)
		}
	}
	if p.Uint64() != q.Uint64() {
		t.Fatal("Perm and PermInto consumed different draw counts")
	}
}
