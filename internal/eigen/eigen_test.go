package eigen

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/linalg"
)

// randomSym returns a deterministic pseudo-random symmetric n×n matrix.
func randomSym(n int, seed uint64) *denseOp {
	rng := linalg.RNGFromState(seed)
	m := newDenseOp(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func checkDecomposition(t *testing.T, a *denseOp, dec *Decomposition, tol float64) {
	t.Helper()
	n := a.Dim()
	k := len(dec.Values)
	// Ascending order.
	for j := 1; j < k; j++ {
		if dec.Values[j] < dec.Values[j-1]-tol {
			t.Fatalf("eigenvalues not ascending: %v", dec.Values)
		}
	}
	// Residuals and orthonormality.
	for j := 0; j < k; j++ {
		v := dec.Vector(j)
		if r := Residual(a, dec.Values[j], v); r > tol {
			t.Errorf("residual for eigenpair %d = %g > %g (λ=%g)", j, r, tol, dec.Values[j])
		}
		if d := math.Abs(linalg.Norm2(v) - 1); d > tol {
			t.Errorf("eigenvector %d not unit norm: off by %g", j, d)
		}
		for l := j + 1; l < k; l++ {
			if d := math.Abs(linalg.Dot(v, dec.Vector(l))); d > tol {
				t.Errorf("eigenvectors %d,%d not orthogonal: dot=%g", j, l, d)
			}
		}
	}
	_ = n
}

func TestSymEigenDiagonal(t *testing.T) {
	a := denseOpFrom(3, []float64{
		3, 0, 0,
		0, -1, 0,
		0, 0, 2,
	})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i, w := range want {
		if math.Abs(dec.Values[i]-w) > 1e-12 {
			t.Fatalf("Values = %v, want %v", dec.Values, want)
		}
	}
	checkDecomposition(t, a, dec, 1e-10)
}

func TestSymEigen2x2Analytic(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := denseOpFrom(2, []float64{2, 1, 1, 2})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]-1) > 1e-12 || math.Abs(dec.Values[1]-3) > 1e-12 {
		t.Fatalf("Values = %v, want [1 3]", dec.Values)
	}
	checkDecomposition(t, a, dec, 1e-12)
}

func TestSymEigenPathLaplacian(t *testing.T) {
	// The Laplacian of a path graph P_n has eigenvalues 2-2cos(πk/n).
	const n = 10
	a := newDenseOp(n)
	for i := 0; i < n; i++ {
		deg := 2.0
		if i == 0 || i == n-1 {
			deg = 1
		}
		a.Set(i, i, deg)
		if i+1 < n {
			a.Set(i, i+1, -1)
			a.Set(i+1, i, -1)
		}
	}
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(math.Pi*float64(k)/float64(n))
		if math.Abs(dec.Values[k]-want) > 1e-10 {
			t.Fatalf("eigenvalue %d = %.12f, want %.12f", k, dec.Values[k], want)
		}
	}
	checkDecomposition(t, a, dec, 1e-9)
}

func TestSymEigenRandomMatrices(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 20, 60} {
		a := randomSym(n, uint64(n)*977)
		dec, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(dec.Values) != n {
			t.Fatalf("n=%d: got %d eigenvalues", n, len(dec.Values))
		}
		checkDecomposition(t, a, dec, 1e-8)
		// Trace is preserved.
		var trace float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		if d := math.Abs(linalg.Sum(dec.Values) - trace); d > 1e-8*float64(n) {
			t.Errorf("n=%d: trace mismatch %g", n, d)
		}
	}
}

func TestSymEigenIdentity(t *testing.T) {
	// Fully degenerate spectrum: every eigenvalue 1, any orthonormal
	// basis acceptable.
	const n = 8
	a := newDenseOp(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec.Values {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("identity eigenvalue %v", v)
		}
	}
	checkDecomposition(t, a, dec, 1e-10)
}

func TestSymEigenRepeatedBlocks(t *testing.T) {
	// Two identical 2x2 blocks: eigenvalues 1 and 3, each twice.
	a := denseOpFrom(4, []float64{
		2, 1, 0, 0,
		1, 2, 0, 0,
		0, 0, 2, 1,
		0, 0, 1, 2,
	})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 3, 3}
	for i, w := range want {
		if math.Abs(dec.Values[i]-w) > 1e-12 {
			t.Fatalf("values = %v, want %v", dec.Values, want)
		}
	}
	checkDecomposition(t, a, dec, 1e-10)
}

func TestSymEigenZeroMatrix(t *testing.T) {
	a := newDenseOp(5)
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec.Values {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalue %v", v)
		}
	}
	checkDecomposition(t, a, dec, 1e-12)
}

func TestSymEigenReconstruction(t *testing.T) {
	// A = V·Λ·Vᵀ elementwise, on a random symmetric matrix.
	const n = 25
	a := randomSym(n, 321)
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	v := denseOpFrom(n, dec.Vectors)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var rec float64
			for k, val := range dec.Values {
				rec += v.At(i, k) * val * v.At(j, k)
			}
			if d := math.Abs(rec - a.At(i, j)); d > 1e-9 {
				t.Fatalf("reconstruction off by %g at (%d,%d)", d, i, j)
			}
		}
	}
}

func TestSymTridEigenKnown(t *testing.T) {
	// Tridiagonal [[1,1,0],[1,1,1],[0,1,1]] = 1 + adjacency of P3;
	// eigenvalues 1-√2, 1, 1+√2.
	d := []float64{1, 1, 1}
	e := []float64{1, 1}
	z := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	if err := SymTridEigen(d, e, z, 3); err != nil {
		t.Fatal(err)
	}
	want := []float64{1 - math.Sqrt2, 1, 1 + math.Sqrt2}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("values %v, want %v", d, want)
		}
	}
}

func TestSymTridEigenSizeZeroOne(t *testing.T) {
	if err := SymTridEigen(nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	d := []float64{42}
	if err := SymTridEigen(d, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if d[0] != 42 {
		t.Fatalf("1x1 eigenvalue = %v, want 42", d[0])
	}
}

func TestLanczosMatchesDense(t *testing.T) {
	for _, n := range []int{12, 40, 120} {
		a := randomSym(n, uint64(n)+5)
		full, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		k := 4
		dec, err := Lanczos(context.Background(), a, k, LanczosOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			if math.Abs(dec.Values[j]-full.Values[j]) > 1e-6 {
				t.Errorf("n=%d: Lanczos value %d = %.9f, dense %.9f", n, j, dec.Values[j], full.Values[j])
			}
		}
		checkDecomposition(t, a, dec, 1e-5)
	}
}

func TestLanczosDeterministic(t *testing.T) {
	a := randomSym(30, 9)
	d1, err := Lanczos(context.Background(), a, 3, LanczosOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Lanczos(context.Background(), a, 3, LanczosOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Values {
		if d1.Values[i] != d2.Values[i] {
			t.Fatal("Lanczos with the same seed should be bit-identical")
		}
	}
}

func TestLanczosDisconnectedLaplacian(t *testing.T) {
	// Block-diagonal Laplacian of two disjoint triangles: eigenvalue 0 has
	// multiplicity 2. Full reorthogonalization + restart must find both.
	var entries []symEntry
	tri := func(off int) {
		for i := 0; i < 3; i++ {
			entries = append(entries, symEntry{off + i, off + i, 2})
			for j := i + 1; j < 3; j++ {
				entries = append(entries, symEntry{off + i, off + j, -1})
			}
		}
	}
	tri(0)
	tri(3)
	m := symCSR(t, 6, entries)
	dec, err := Lanczos(context.Background(), CSROp{m}, 3, LanczosOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]) > 1e-9 || math.Abs(dec.Values[1]) > 1e-9 {
		t.Fatalf("two zero eigenvalues expected, got %v", dec.Values)
	}
	if math.Abs(dec.Values[2]-3) > 1e-8 {
		t.Fatalf("third eigenvalue = %v, want 3", dec.Values[2])
	}
}

func TestLanczosErrors(t *testing.T) {
	a := randomSym(4, 1)
	if _, err := Lanczos(context.Background(), a, 0, LanczosOptions{}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Lanczos(context.Background(), a, 5, LanczosOptions{}); err == nil {
		t.Fatal("k>n should error")
	}
}
