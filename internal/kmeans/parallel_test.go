package kmeans

import (
	"context"
	"testing"

	"roadpart/internal/linalg"
)

// clusterPoints builds a deterministic point cloud with enough structure
// that different restarts genuinely converge to different optima.
func clusterPoints(n int) [][]float64 {
	rng := linalg.RNGFromState(0xfeed)
	pts := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		c := float64(i % 5)
		pts = append(pts, []float64{
			c*4 + rng.Float64(),
			c*3 - rng.Float64(),
			rng.Float64() * 2,
		})
	}
	return pts
}

// TestNDWorkersBitIdentical is the tentpole determinism guarantee at the
// kmeans layer: the same seed produces the same assignment, means, sizes
// and WCSS whether the restarts run serial or on 8 workers.
func TestNDWorkersBitIdentical(t *testing.T) {
	pts := clusterPoints(300)
	ref, err := NDCtx(context.Background(), pts, 5, NDOptions{Seed: 17, Restarts: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		got, err := NDCtx(context.Background(), pts, 5, NDOptions{Seed: 17, Restarts: 7, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got.WCSS != ref.WCSS {
			t.Fatalf("workers=%d: WCSS %v != serial %v", w, got.WCSS, ref.WCSS)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("workers=%d: iterations %d != serial %d", w, got.Iterations, ref.Iterations)
		}
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("workers=%d: assignment differs at point %d", w, i)
			}
		}
		for c := range ref.Means {
			if got.Sizes[c] != ref.Sizes[c] {
				t.Fatalf("workers=%d: size[%d] %d != %d", w, c, got.Sizes[c], ref.Sizes[c])
			}
			for d := range ref.Means[c] {
				if got.Means[c][d] != ref.Means[c][d] {
					t.Fatalf("workers=%d: mean[%d][%d] %v != %v", w, c, d, got.Means[c][d], ref.Means[c][d])
				}
			}
		}
	}
}

// TestNDRestartSeedsIndependent pins the split-seed property: the first
// restart of a Restarts=N run is the same as a Restarts=1 run, so more
// restarts can only improve WCSS (the reduction keeps restart 0 on ties).
func TestNDRestartSeedsIndependent(t *testing.T) {
	pts := clusterPoints(120)
	one, err := NDCtx(context.Background(), pts, 4, NDOptions{Seed: 3, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, restarts := range []int{2, 5, 9} {
		many, err := NDCtx(context.Background(), pts, 4, NDOptions{Seed: 3, Restarts: restarts})
		if err != nil {
			t.Fatal(err)
		}
		if many.WCSS > one.WCSS {
			t.Fatalf("restarts=%d worsened WCSS: %v > %v (restart 0 must be shared)", restarts, many.WCSS, one.WCSS)
		}
	}
}

// TestNDFewPointsWorkersBitIdentical runs the serial-versus-8-workers
// check on a second, smaller input with more restarts than clusters.
func TestNDFewPointsWorkersBitIdentical(t *testing.T) {
	pts := clusterPoints(90)
	a, err := NDCtx(context.Background(), pts, 3, NDOptions{Seed: 11, Restarts: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NDCtx(context.Background(), pts, 3, NDOptions{Seed: 11, Restarts: 6, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.WCSS != b.WCSS {
		t.Fatalf("WCSS %v != %v", a.WCSS, b.WCSS)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment differs at %d", i)
		}
	}
}
