package eigen

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/linalg"
)

// TestLanczosWarmStartMatchesCold: a warm-started iteration must converge
// to the same eigenvalues (and residual quality) as the cold one — the
// start vector steers which operations run, never which subspace is
// correct.
func TestLanczosWarmStartMatchesCold(t *testing.T) {
	a := randomSym(60, 11)
	op := a
	k := 4
	cold, err := Lanczos(context.Background(), op, k, LanczosOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-start from a one-row block: the sum of the converged
	// eigenvectors.
	start := make([]float64, 60)
	for j := 0; j < k; j++ {
		linalg.Axpy(1, cold.Vector(j), start)
	}
	warm, err := Lanczos(context.Background(), op, k, LanczosOptions{Seed: 3, StartBlock: [][]float64{start}})
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, a, warm, 1e-7)
	for j := 0; j < k; j++ {
		if d := math.Abs(warm.Values[j] - cold.Values[j]); d > 1e-7 {
			t.Fatalf("eigenvalue %d: warm %v vs cold %v (Δ=%g)", j, warm.Values[j], cold.Values[j], d)
		}
	}
}

// TestLanczosMismatchedStartIsCold: a one-row StartBlock whose row is of
// the wrong length or zero must leave the solver byte-for-byte on the
// deterministic cold path.
func TestLanczosMismatchedStartIsCold(t *testing.T) {
	a := randomSym(40, 5)
	op := a
	cold, err := Lanczos(context.Background(), op, 3, LanczosOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	short, err := Lanczos(context.Background(), op, 3, LanczosOptions{Seed: 9, StartBlock: [][]float64{make([]float64, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Lanczos(context.Background(), op, 3, LanczosOptions{Seed: 9, StartBlock: [][]float64{make([]float64, 40)}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range cold.Values {
		if cold.Values[j] != short.Values[j] || cold.Values[j] != zero.Values[j] {
			t.Fatalf("degraded warm starts are not bit-identical to cold: %v vs %v vs %v",
				cold.Values, short.Values, zero.Values)
		}
	}
	for i := range cold.Vectors {
		if cold.Vectors[i] != short.Vectors[i] || cold.Vectors[i] != zero.Vectors[i] {
			t.Fatal("degraded warm starts produced different eigenvectors")
		}
	}
}
