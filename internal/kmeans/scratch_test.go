package kmeans

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/linalg"
)

func testPoints(n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = math.Sin(float64(i*dim+d)) * float64(1+i%5)
		}
		pts[i] = p
	}
	return pts
}

// TestScratchOneDMatchesFresh pins the scratch path bit-for-bit against
// scratch-free OneD, including across reuse with mismatched sizes so a
// dirty scratch is exercised.
func TestScratchOneDMatchesFresh(t *testing.T) {
	var s Scratch
	data := make([]float64, 400)
	for i := range data {
		data[i] = math.Cos(float64(i)) * 10
	}
	// Larger first call leaves garbage behind for the smaller ones.
	for _, cfg := range []struct{ n, k int }{{400, 9}, {150, 4}, {400, 9}, {37, 2}} {
		want, err := OneD(data[:cfg.n], cfg.k, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Prepare(data[:cfg.n])
		got, err := s.Cluster(cfg.k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.WCSS != want.WCSS || got.Iterations != want.Iterations || got.K != want.K {
			t.Fatalf("n=%d k=%d: scalar mismatch: %+v vs %+v", cfg.n, cfg.k, got, want)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("n=%d k=%d: assign[%d] %d != %d", cfg.n, cfg.k, i, got.Assign[i], want.Assign[i])
			}
		}
		for c := range want.Means {
			if got.Mean1(c) != want.Mean1(c) || got.Sizes[c] != want.Sizes[c] {
				t.Fatalf("n=%d k=%d cluster %d: mean/size mismatch", cfg.n, cfg.k, c)
			}
		}
	}
}

// TestScratchOneDSteadyStateAllocFree pins warm scratch clusterings at
// zero allocations (the Result is scratch-owned): one Prepare plus one
// Cluster, and a whole prepared κ-sweep — one Prepare, then κ = 2…25, the
// shape of the supernode miner's sweeps — whose sorted view and per-κ
// buffers all live in the scratch.
func TestScratchOneDSteadyStateAllocFree(t *testing.T) {
	var s Scratch
	small := make([]float64, 256)
	for i := range small {
		small[i] = float64(i%17) * 1.5
	}
	sweep := make([]float64, 2000)
	for i := range sweep {
		sweep[i] = math.Exp(math.Sin(float64(i)*0.37) * 3)
	}
	for _, tc := range []struct {
		name       string
		data       []float64
		kMin, kMax int
	}{
		{"single", small, 5, 5},
		{"sweep", sweep, 2, 25},
	} {
		run := func() {
			s.Prepare(tc.data)
			for k := tc.kMin; k <= tc.kMax; k++ {
				if _, err := s.Cluster(k, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm up
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("warm %s run allocates %v, want 0", tc.name, allocs)
		}
	}
}

// TestLloydAllocFree pins a whole bounded Lloyd run — seeding, the
// bounded assignment passes and the final WCSS sum — at zero
// allocations. This is one of the three allocation-free hot-path pins
// of docs/PERFORMANCE.md.
func TestLloydAllocFree(t *testing.T) {
	pts := testPoints(300, 4)
	var s ndScratch
	s.reset(len(pts), 6, 4)
	var iters int
	allocs := testing.AllocsPerRun(50, func() {
		rng := linalg.RNGFromState(1)
		seedInto(pts, 6, &rng, &s)
		_, iters = lloydInto(pts, 10, DefaultMaxIterations, &s) // every norm is at most 5·√4
	})
	if allocs != 0 {
		t.Fatalf("lloydInto allocates %v per call, want 0", allocs)
	}
	if iters < 3 {
		t.Fatalf("converged after %d passes; the pin never reached a bounded pass", iters)
	}
}

// TestNDPooledDeterministic runs the same pooled ND problem repeatedly
// (warming the restart-scratch pool) and across worker counts; every run
// must be bit-identical — pooled dirty scratches can never leak state
// into results.
func TestNDPooledDeterministic(t *testing.T) {
	pts := testPoints(120, 3)
	opts := NDOptions{Restarts: 6, Seed: 11, Workers: 1}
	want, err := NDCtx(context.Background(), pts, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		o := opts
		o.Workers = 1 + trial%3*3 // 1, 4, 7, 1
		got, err := NDCtx(context.Background(), pts, 5, o)
		if err != nil {
			t.Fatal(err)
		}
		if got.WCSS != want.WCSS || got.Iterations != want.Iterations {
			t.Fatalf("trial %d (workers %d): WCSS/iters drifted", trial, o.Workers)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("trial %d: assign[%d] differs", trial, i)
			}
		}
		for c := range want.Means {
			for d := range want.Means[c] {
				if got.Means[c][d] != want.Means[c][d] {
					t.Fatalf("trial %d: mean (%d,%d) differs", trial, c, d)
				}
			}
		}
	}
}

// TestNDResultDetachedFromPool checks the returned Result never aliases
// pooled scratch memory: a second ND call reusing the scratches must not
// mutate the first call's result.
func TestNDResultDetachedFromPool(t *testing.T) {
	pts := testPoints(80, 2)
	first, err := NDCtx(context.Background(), pts, 4, NDOptions{Restarts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	snapAssign := append([]int(nil), first.Assign...)
	snapMean := first.Means[0][0]
	// Different data through the same pool.
	if _, err := NDCtx(context.Background(), testPoints(80, 2)[:60], 3, NDOptions{Restarts: 4, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	for i := range snapAssign {
		if first.Assign[i] != snapAssign[i] {
			t.Fatalf("Assign[%d] mutated by a later pooled run", i)
		}
	}
	if first.Means[0][0] != snapMean {
		t.Fatal("Means mutated by a later pooled run")
	}
}
