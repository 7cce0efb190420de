// Package linalg provides the small sparse linear-algebra substrate
// used by the spectral partitioning framework.
//
// The Go standard library carries no matrix code, so everything the
// paper's spectral partitioning stage (Section 5, Algorithm 3) relies
// on — CSR sparse matrices and the vector kernels underneath the
// eigensolvers — is implemented here from scratch. The package is
// deliberately minimal: it implements exactly the operations the
// framework needs, with predictable O(nnz) or O(n) costs and no hidden
// allocation in the hot kernels.
//
// Every product that feeds a sum is converted with an explicit
// float64(...), which rounds it on its own (the Go spec's rule for
// explicit conversions). Without it the compiler may fuse the multiply
// and the add into one FMA instruction on arm64, ppc64le and riscv64,
// and the sums would differ from amd64's in the last bit; make fma-check
// disassembles those builds to keep it so (docs/NUMERICS.md
// § Determinism).
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
// It panics if the vectors have different lengths.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large components in the same way math.Hypot does.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Scale multiplies every element of x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Axpy computes y += a*x in place.
// It panics if the vectors have different lengths.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// AxpyDot computes y += a*x in place and returns the inner product of
// the updated y with z, in one sweep. The result is bit-identical to
// Axpy(a, x, y) followed by Dot(y, z): each y[i] is updated exactly as
// Axpy does, and the products accumulate in index order into a single
// sum exactly as Dot does. It panics if the vectors have different
// lengths.
func AxpyDot(a float64, x, y, z []float64) float64 {
	if len(x) != len(y) || len(z) != len(y) {
		panic(fmt.Sprintf("linalg: AxpyDot length mismatch %d, %d, %d", len(x), len(y), len(z)))
	}
	var s float64
	for i, v := range x {
		y[i] += float64(a * v)
		s += float64(y[i] * z[i])
	}
	return s
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Normalize scales x in place to unit Euclidean norm and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}
