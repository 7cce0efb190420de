package jiger

import (
	"testing"

	"roadpart/internal/graph"
	"roadpart/internal/metrics"
)

// stripes builds a path graph with s density stripes of width w.
func stripes(s, w int) (*graph.Graph, []float64) {
	n := s * w
	gb := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i/w)*10 + 0.01*float64(i%w)
	}
	return g, f
}

func TestPartitionRecoversStripes(t *testing.T) {
	g, f := stripes(3, 8)
	res, err := Partition(g, f, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d, want 3", res.K)
	}
	if err := metrics.ValidatePartition(g, res.Assign); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	// Each stripe should be (almost) pure; check intra is small.
	rep, err := metrics.Evaluate(f, res.Assign, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intra > 1 {
		t.Fatalf("intra = %v, stripes not recovered: %v", rep.Intra, res.Assign)
	}
}

func TestPartitionConnectivityAlwaysHolds(t *testing.T) {
	// A 2D-ish lattice with noisy densities: boundary adjustment is
	// exercised heavily; C.2 must survive.
	const side = 6
	gb := graph.NewBuilder(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				gb.AddEdge(r*side+c, r*side+c+1, 1)
			}
			if r+1 < side {
				gb.AddEdge(r*side+c, (r+1)*side+c, 1)
			}
		}
	}
	g := gb.Build()
	f := make([]float64, side*side)
	for i := range f {
		// Left half low, right half high, with noise from index mixing.
		base := 0.0
		if i%side >= side/2 {
			base = 5
		}
		f[i] = base + 0.3*float64((i*7)%5)
	}
	for _, k := range []int{2, 3, 4, 5} {
		res, err := Partition(g, f, k, Options{Seed: 2})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.K != k {
			t.Fatalf("k=%d: got K=%d", k, res.K)
		}
		if err := metrics.ValidatePartition(g, res.Assign); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestBoundaryAdjustmentImprovesIntra(t *testing.T) {
	// Boundary adjustment must leave the stripes homogeneous.
	g, f := stripes(2, 10)
	with, err := Partition(g, f, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	repWith, err := metrics.Evaluate(f, with.Assign, g)
	if err != nil {
		t.Fatal(err)
	}
	if repWith.Intra > 1 {
		t.Fatalf("adjusted intra %v too high", repWith.Intra)
	}
}

func TestPartitionErrors(t *testing.T) {
	g, f := stripes(2, 4)
	if _, err := Partition(g, f[:2], 2, Options{}); err == nil {
		t.Fatal("feature mismatch should error")
	}
	if _, err := Partition(g, f, 0, Options{}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Partition(g, f, 99, Options{}); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g, f := stripes(3, 6)
	a, err := Partition(g, f, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, f, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("baseline should be deterministic in seed")
		}
	}
}
