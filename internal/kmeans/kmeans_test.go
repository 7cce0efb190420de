package kmeans

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"roadpart/internal/linalg"
)

func TestOneDTwoObviousClusters(t *testing.T) {
	data := []float64{0.1, 0.2, 0.15, 10.1, 10.2, 10.3}
	res, err := OneD(data, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	low := res.Assign[0]
	for i := 0; i < 3; i++ {
		if res.Assign[i] != low {
			t.Fatalf("low cluster split: %v", res.Assign)
		}
	}
	for i := 3; i < 6; i++ {
		if res.Assign[i] == low {
			t.Fatalf("clusters not separated: %v", res.Assign)
		}
	}
	// Means should be close to the group averages.
	got := []float64{res.Mean1(0), res.Mean1(1)}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-0.15) > 1e-9 || math.Abs(got[1]-10.2) > 1e-9 {
		t.Fatalf("means = %v", got)
	}
}

func TestOneDDeterministic(t *testing.T) {
	data := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	a, err := OneD(data, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OneD(data, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("OneD should be deterministic")
		}
	}
}

func TestOneDKEqualsN(t *testing.T) {
	data := []float64{1, 2, 3}
	res, err := OneD(data, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCSS > 1e-12 {
		t.Fatalf("k=n should have zero WCSS, got %v", res.WCSS)
	}
}

func TestOneDKEqualsOne(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	res, err := OneD(data, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean1(0)-2.5) > 1e-12 {
		t.Fatalf("k=1 mean = %v, want 2.5", res.Mean1(0))
	}
	if res.Sizes[0] != 4 {
		t.Fatalf("k=1 size = %d, want 4", res.Sizes[0])
	}
}

func TestOneDErrors(t *testing.T) {
	if _, err := OneD([]float64{1}, 0, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := OneD([]float64{1}, 2, 0); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestOneDIdenticalValues(t *testing.T) {
	data := []float64{7, 7, 7, 7}
	res, err := OneD(data, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCSS != 0 {
		t.Fatalf("identical data should cluster with zero WCSS, got %v", res.WCSS)
	}
}

func TestOneDDoesNotMutateInput(t *testing.T) {
	data := []float64{3, 1, 2}
	if _, err := OneD(data, 2, 0); err != nil {
		t.Fatal(err)
	}
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatalf("input mutated: %v", data)
	}
}

// Property: every item is assigned to its nearest mean at convergence.
func TestOneDNearestMeanInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, math.Mod(v, 1000))
			}
		}
		if len(data) < 4 {
			return true
		}
		res, err := OneD(data, 3, 0)
		if err != nil {
			return false
		}
		for i, v := range data {
			have := (v - res.Mean1(res.Assign[i])) * (v - res.Mean1(res.Assign[i]))
			for c := 0; c < res.K; c++ {
				if res.Sizes[c] == 0 {
					continue
				}
				d := (v - res.Mean1(c)) * (v - res.Mean1(c))
				if d < have-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOneDRandomInitConvergesToo(t *testing.T) {
	data := []float64{0.1, 0.2, 0.15, 10.1, 10.2, 10.3}
	res, err := OneDRandomInit(data, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[3] != res.Assign[4] || res.Assign[0] == res.Assign[3] {
		t.Fatalf("random init failed to separate: %v", res.Assign)
	}
	// Deterministic in seed.
	again, err := OneDRandomInit(data, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Assign {
		if res.Assign[i] != again.Assign[i] {
			t.Fatal("same seed should give identical result")
		}
	}
	// Sorted init should never do worse on WCSS than a bad random start
	// is *capable* of doing (sorted ≤ worst random over seeds).
	sorted, err := OneD(data, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for seed := uint64(1); seed <= 10; seed++ {
		r, err := OneDRandomInit(data, 2, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.WCSS > worst {
			worst = r.WCSS
		}
	}
	if sorted.WCSS > worst+1e-12 {
		t.Fatalf("sorted WCSS %v worse than the worst random start %v", sorted.WCSS, worst)
	}
}

func TestNDSeparatesGaussians(t *testing.T) {
	rng := linalg.RNGFromState(42)
	var pts [][]float64
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for c := 0; c < 3; c++ {
		for i := 0; i < 40; i++ {
			pts = append(pts, []float64{
				centers[c][0] + rng.Float64() - 0.5,
				centers[c][1] + rng.Float64() - 0.5,
			})
		}
	}
	res, err := NDCtx(context.Background(), pts, 3, NDOptions{Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every ground-truth group should be pure.
	for c := 0; c < 3; c++ {
		want := res.Assign[c*40]
		for i := 0; i < 40; i++ {
			if res.Assign[c*40+i] != want {
				t.Fatalf("group %d split across clusters", c)
			}
		}
	}
	if res.WCSS > 100 {
		t.Fatalf("WCSS = %v unexpectedly high", res.WCSS)
	}
}

func TestNDDeterministicForSeed(t *testing.T) {
	pts := [][]float64{{1, 1}, {2, 2}, {9, 9}, {10, 10}, {1, 2}, {9, 10}}
	a, err := NDCtx(context.Background(), pts, 2, NDOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NDCtx(context.Background(), pts, 2, NDOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("ND with the same seed should be identical")
		}
	}
}

func TestNDErrors(t *testing.T) {
	if _, err := NDCtx(context.Background(), nil, 1, NDOptions{}); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := NDCtx(context.Background(), [][]float64{{1}, {1, 2}}, 1, NDOptions{}); err == nil {
		t.Fatal("ragged input should error")
	}
	if _, err := NDCtx(context.Background(), [][]float64{{1}}, 0, NDOptions{}); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestNDRestartsImproveOrEqual(t *testing.T) {
	rng := linalg.RNGFromState(99)
	var pts [][]float64
	for i := 0; i < 50; i++ {
		pts = append(pts, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	one, err := NDCtx(context.Background(), pts, 5, NDOptions{Seed: 2, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := NDCtx(context.Background(), pts, 5, NDOptions{Seed: 2, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if many.WCSS > one.WCSS+1e-9 {
		t.Fatalf("more restarts worsened WCSS: %v > %v", many.WCSS, one.WCSS)
	}
}
