package cut

import (
	"context"
	"testing"
)

// TestSpectralMatchesPartition pins the cache: one Spectral shared
// across k — whose later calls reuse or widen the decomposition the
// first call computed — partitions exactly like a fresh Spectral per k.
func TestSpectralMatchesPartition(t *testing.T) {
	g := barbell(6, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 1})
	for _, k := range []int{2, 3, 4} {
		cached, err := s.PartitionCtx(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := partition(g, k, MethodAlphaCut, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cached.K != fresh.K {
			t.Fatalf("k=%d: cached K=%d vs fresh K=%d", k, cached.K, fresh.K)
		}
		for i := range cached.Assign {
			if cached.Assign[i] != fresh.Assign[i] {
				t.Fatalf("k=%d: cached and fresh assignments differ at node %d", k, i)
			}
		}
	}
}

// TestSpectralMatchesPartitionOptions repeats the cached-vs-fresh pin
// with non-default options, explicit defaults included: every Spectral
// applies defaults through Options.normalized, so explicit and
// defaulted values must agree.
func TestSpectralMatchesPartitionOptions(t *testing.T) {
	g := barbell(6, 1, 0.05)
	cases := []Options{
		{Seed: 7, Restarts: 3},
		{Seed: 7, Restarts: 5, DenseCutoff: 900}, // explicit defaults
		{Seed: 11, Workers: 4},
	}
	for ci, opts := range cases {
		s := NewSpectral(g, MethodNCut, opts)
		for _, k := range []int{2, 3} {
			cached, err := s.PartitionCtx(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := partition(g, k, MethodNCut, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cached.K != fresh.K {
				t.Fatalf("case %d k=%d: cached K=%d vs fresh K=%d", ci, k, cached.K, fresh.K)
			}
			for i := range cached.Assign {
				if cached.Assign[i] != fresh.Assign[i] {
					t.Fatalf("case %d k=%d: assignments differ at node %d", ci, k, i)
				}
			}
		}
	}
}

func TestSpectralCacheReuse(t *testing.T) {
	// After a k=4 call the decomposition is wide enough for k=2..4; the
	// cached object must stay internally consistent when asked downward.
	g := barbell(6, 1, 0.05)
	s := NewSpectral(g, MethodNCut, Options{Seed: 2})
	if _, err := s.PartitionCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	width := len(s.dec.Values)
	if width < 4 {
		t.Fatalf("cache width %d after k=4", width)
	}
	res, err := s.PartitionCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.dec.Values) != width {
		t.Fatal("downward k should not recompute the decomposition")
	}
	if res.K != 2 {
		t.Fatalf("K = %d, want 2", res.K)
	}
	if res.Assign[0] == res.Assign[11] {
		t.Fatal("cached ncut failed to separate the cliques")
	}
}

func TestSpectralErrors(t *testing.T) {
	g := barbell(3, 1, 1)
	s := NewSpectral(g, MethodAlphaCut, Options{})
	if _, err := s.PartitionCtx(context.Background(), 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := s.PartitionCtx(context.Background(), g.N()+1); err == nil {
		t.Fatal("k>n should error")
	}
	one, err := s.PartitionCtx(context.Background(), 1)
	if err != nil || one.K != 1 {
		t.Fatalf("k=1: %v %v", one, err)
	}
}
