package cut

import (
	"context"
	"sync"
	"testing"

	"roadpart/internal/graph"
)

// grid builds a deterministic w×h lattice with mildly varying weights,
// large enough to make concurrent decomposition interesting.
func grid(w, h int) *graph.Graph {
	gb := graph.NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			wgt := 1 + 0.1*float64((x*7+y*13)%5)
			if x+1 < w {
				_ = gb.AddEdge(id(x, y), id(x+1, y), wgt)
			}
			if y+1 < h {
				_ = gb.AddEdge(id(x, y), id(x, y+1), wgt)
			}
		}
	}
	g := gb.Build()
	return g
}

// TestSpectralConcurrentPartition hammers one Spectral from many
// goroutines with mixed k values — the shape of the parallel k-sweep —
// and checks every concurrent result against a serial reference computed
// on a warmed cache. Run under -race this also proves the solve token
// and the memo reads under mu are race-clean.
func TestSpectralConcurrentPartition(t *testing.T) {
	g := grid(8, 8) // 64 nodes: schedule-independent embeddings
	ks := []int{2, 3, 4, 5, 6}

	// Serial reference on an identically-configured warmed partitioner.
	ref := map[int]*Result{}
	serial := NewSpectral(g, MethodAlphaCut, Options{Seed: 3})
	if err := serial.WarmCtx(context.Background(), ks[len(ks)-1]); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		res, err := serial.PartitionCtx(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		ref[k] = res
	}

	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 3})
	if err := s.WarmCtx(context.Background(), ks[len(ks)-1]); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				k := ks[(gi+rep)%len(ks)]
				res, err := s.PartitionCtx(context.Background(), k)
				if err != nil {
					errs[gi] = err
					return
				}
				want := ref[k]
				if res.K != want.K {
					t.Errorf("goroutine %d k=%d: K=%d, want %d", gi, k, res.K, want.K)
					return
				}
				for i := range want.Assign {
					if res.Assign[i] != want.Assign[i] {
						t.Errorf("goroutine %d k=%d: assignment differs at node %d", gi, k, i)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpectralConcurrentColdCache starts many goroutines against a cold
// cache asking for the same k: they must share one decomposition, with
// no duplicate eigensolve (exactly one miss on
// roadpart_spectral_cache_total, and one hit per caller, since every
// lookup that returns reads the memo), consistent results and no races
// under -race.
func TestSpectralConcurrentColdCache(t *testing.T) {
	g := grid(7, 7)
	s := NewSpectral(g, MethodNCut, Options{Seed: 9})
	const goroutines = 12
	hits, misses := specHits.Value(), specMisses.Value()
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			results[gi], errs[gi] = s.PartitionCtx(context.Background(), 4)
		}(gi)
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", gi, err)
		}
	}
	first := results[0]
	for gi, res := range results[1:] {
		if res.K != first.K {
			t.Fatalf("goroutine %d: K=%d, others got %d", gi+1, res.K, first.K)
		}
		for i := range first.Assign {
			if res.Assign[i] != first.Assign[i] {
				t.Fatalf("goroutine %d: assignment differs at node %d", gi+1, i)
			}
		}
	}
	if got := specMisses.Value() - misses; got != 1 {
		t.Fatalf("%d concurrent cold calls ran %d eigensolves, want 1", goroutines, got)
	}
	if got := specHits.Value() - hits; got != goroutines {
		t.Fatalf("%d concurrent cold calls counted %d hits, want %d", goroutines, got, goroutines)
	}
}

// TestSpectralConcurrentFailedSolve makes every solve fail (α = 2 is
// outside [0,1], so the operator is rejected) under concurrent callers:
// each caller gets an error, nothing is cached, and a later call solves
// again rather than reading a stored failure.
func TestSpectralConcurrentFailedSolve(t *testing.T) {
	g := grid(7, 7)
	s := NewSpectral(g, MethodScalarAlpha, Options{Seed: 9, Alpha: 2})
	const goroutines = 12
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			_, errs[gi] = s.PartitionCtx(context.Background(), 4)
		}(gi)
	}
	wg.Wait()
	for gi, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: failed solve returned no error", gi)
		}
	}
	if dec := s.Decomposition(); dec != nil {
		t.Fatalf("failed solve cached a decomposition of %d pairs", len(dec.Values))
	}
	misses := specMisses.Value()
	if _, err := s.PartitionCtx(context.Background(), 4); err == nil {
		t.Fatal("later call on a failing Spectral returned no error")
	}
	if got := specMisses.Value() - misses; got != 1 {
		t.Fatalf("later call ran %d eigensolves, want 1", got)
	}
}

// TestPartitionWorkersDeterministic pins the cut-layer guarantee: the
// single-k partitioner produces the identical result for Workers=1 and
// Workers=8 at the same seed.
func TestPartitionWorkersDeterministic(t *testing.T) {
	g := grid(9, 6)
	for _, method := range []Method{MethodAlphaCut, MethodNCut} {
		serial, err := partition(g, 5, method, Options{Seed: 21, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := partition(g, 5, method, Options{Seed: 21, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if serial.K != par.K || serial.KPrime != par.KPrime {
			t.Fatalf("%v: K/KPrime %d/%d vs %d/%d", method, serial.K, serial.KPrime, par.K, par.KPrime)
		}
		for i := range serial.Assign {
			if serial.Assign[i] != par.Assign[i] {
				t.Fatalf("%v: Workers=1 and Workers=8 differ at node %d", method, i)
			}
		}
	}
}
