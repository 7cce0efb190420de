package eigen

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/linalg"
)

// tripleBlockMatrix builds a 3b×3b block-diagonal matrix of three
// identical b×b path-graph Laplacians: every eigenvalue of the block
// appears with multiplicity exactly 3 in the full matrix.
func tripleBlockMatrix(b int) *denseOp {
	n := 3 * b
	a := newDenseOp(n)
	for c := 0; c < 3; c++ {
		off := c * b
		for i := 0; i < b; i++ {
			deg := 2.0
			if i == 0 || i == b-1 {
				deg = 1.0
			}
			a.Set(off+i, off+i, deg)
			if i+1 < b {
				a.Set(off+i, off+i+1, -1)
				a.Set(off+i+1, off+i, -1)
			}
		}
	}
	return a
}

// TestLanczosEigenvalueMultiplicityThree is the block-solver regression
// for degenerate spectra: a single Krylov sequence cannot, in exact
// arithmetic, resolve an eigenvalue of multiplicity m > 1 — recovering
// all copies relies on the solver's invariant-subspace restarts
// injecting fresh random directions (docs/NUMERICS.md § Restart policy).
// Three identical path-Laplacian blocks give every eigenvalue
// multiplicity exactly 3; the solver must return each smallest
// eigenvalue three times, with the basis of each degenerate eigenspace
// orthonormal to 1e-10.
func TestLanczosEigenvalueMultiplicityThree(t *testing.T) {
	const b = 10
	a := tripleBlockMatrix(b)
	const k = 8 // two full triples (λ0, λ1) plus part of the λ2 triple

	// Dense reference for the true spectrum.
	ref, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := Lanczos(context.Background(), a, k, LanczosOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Values) != k {
		t.Fatalf("got %d eigenpairs, want %d", len(dec.Values), k)
	}
	for j := 0; j < k; j++ {
		if d := math.Abs(dec.Values[j] - ref.Values[j]); d > 1e-8 {
			t.Errorf("eigenvalue %d = %.12g, dense reference %.12g (off by %g)",
				j, dec.Values[j], ref.Values[j], d)
		}
	}
	// The degenerate copies must agree with each other, not just with the
	// reference: positions {0,1,2} and {3,4,5} are exact triples.
	for _, triple := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		lo, hi := dec.Values[triple[0]], dec.Values[triple[2]]
		if hi-lo > 1e-8 {
			t.Errorf("triple %v spreads [%.12g, %.12g]: multiplicity not resolved",
				triple, lo, hi)
		}
	}
	// Residuals at the solver tolerance; orthonormality to 1e-10 — within
	// a degenerate eigenspace orthogonality is entirely the solver's
	// doing (any basis of the eigenspace has zero residual).
	for j := 0; j < k; j++ {
		v := dec.Vector(j)
		if r := Residual(a, dec.Values[j], v); r > 1e-7 {
			t.Errorf("residual for eigenpair %d = %g (λ=%g)", j, r, dec.Values[j])
		}
		if d := math.Abs(linalg.Norm2(v) - 1); d > 1e-10 {
			t.Errorf("eigenvector %d not unit norm: off by %g", j, d)
		}
		for l := j + 1; l < k; l++ {
			if d := math.Abs(linalg.Dot(v, dec.Vector(l))); d > 1e-10 {
				t.Errorf("eigenvectors %d,%d not orthogonal: dot=%g", j, l, d)
			}
		}
	}

	// A warm-seeded re-solve from the converged Ritz block must resolve
	// the same degenerate triples (the warm path skips the random seeds
	// the cold path relied on, so degeneracy handling must not depend on
	// which seeding produced the basis).
	blk := make([][]float64, k)
	for j := range blk {
		blk[j] = dec.Vector(j)
	}
	warm, err := Lanczos(context.Background(), a, k, LanczosOptions{Seed: 5, StartBlock: blk})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if d := math.Abs(warm.Values[j] - ref.Values[j]); d > 1e-8 {
			t.Errorf("warm eigenvalue %d = %.12g, dense reference %.12g (off by %g)",
				j, warm.Values[j], ref.Values[j], d)
		}
	}
}
