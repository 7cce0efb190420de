// Package eigen implements symmetric eigensolvers in pure Go.
//
// The paper's partitioning stage (Algorithm 3) needs the k smallest
// eigenpairs of the symmetric α-Cut matrix M, and the normalized-cut
// baseline needs the smallest eigenpairs of the symmetric normalized
// Laplacian. The authors used Matlab's block-reduction eigensolver
// (Dongarra et al. [3]); Go has no linear-algebra standard library, so this
// package provides the same capability from scratch:
//
//   - SymEigen: full dense decomposition by Householder tridiagonalization
//     (tred2) followed by the implicit-shift QL algorithm (tql2). O(n³),
//     suitable up to a few thousand rows.
//   - Lanczos: iterative extraction of extremal eigenpairs of any linear
//     operator given only matrix–vector products, with full
//     reorthogonalization. This exploits that the α-Cut matrix is a
//     rank-one update of a sparse matrix, so each product costs O(nnz+n).
//
// Both solvers return eigenvalues in ascending order with orthonormal
// eigenvectors.
//
// As in package linalg, every product that feeds a sum is rounded with an
// explicit float64(...), so no compiler fuses it into an FMA instruction
// and the bits are the same on every platform (make fma-check).
package eigen

import (
	"fmt"
	"math"
)

// maxQLIterations bounds the implicit-shift QL sweeps per eigenvalue; 60 is
// far above what well-conditioned tridiagonals need (typically < 10).
const maxQLIterations = 60

// eps is the unit roundoff used for deflation tests.
const eps = 2.220446049250313e-16

// SymTridEigen computes all eigenvalues and, optionally, eigenvectors of
// the symmetric tridiagonal matrix with diagonal d (length n) and
// sub-diagonal e, where e[i] couples rows i and i+1 for i in [0, n-2]
// (e may have length n-1 or n; a trailing element is ignored).
//
// On return d holds the eigenvalues in ascending order and e is destroyed.
// z holds the given number of rows of n columns, row-major (nil when
// rows is 0). On entry they should be rows of the orthogonal
// transformation that produced the tridiagonal form (the identity for a
// plain tridiagonal problem); on exit column j holds those rows of the
// eigenvector for d[j]. Every rotation and swap acts on each row on its
// own, so a row comes out bit-identical whichever other rows are passed
// with it: rows == n gives the eigenvectors, fewer rows give those
// coordinates alone at O(rows·n) per sweep, and d never depends on z.
//
// The implementation follows the EISPACK/JAMA tql2 routine.
func SymTridEigen(d, e []float64, z []float64, n, rows int) error {
	if len(d) < n {
		return fmt.Errorf("eigen: SymTridEigen needs d of length >= %d, got %d", n, len(d))
	}
	if n > 1 && len(e) < n-1 {
		return fmt.Errorf("eigen: SymTridEigen needs e of length >= %d, got %d", n-1, len(e))
	}
	if rows < 0 || len(z) < rows*n {
		return fmt.Errorf("eigen: SymTridEigen z must hold %d rows of %d, got %d elements", rows, n, len(z))
	}
	if n == 0 {
		return nil
	}
	// Work on e padded so that e[n-1] exists and is zero — in place when
	// the caller provided the extra element (e is documented as destroyed,
	// and the in-place path keeps hot-loop convergence checks
	// allocation-free), via a copy otherwise.
	var sub []float64
	if len(e) >= n {
		sub = e[:n]
		sub[n-1] = 0
	} else {
		sub = make([]float64, n)
		copy(sub, e[:n-1])
	}

	var f, tst1 float64
	for l := 0; l < n; l++ {
		if t := math.Abs(d[l]) + math.Abs(sub[l]); t > tst1 {
			tst1 = t
		}
		m := l
		for m < n && math.Abs(sub[m]) > eps*tst1 {
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= maxQLIterations {
					return fmt.Errorf("eigen: QL failed to converge for eigenvalue %d after %d iterations", l, maxQLIterations)
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * sub[l])
				r := pythag(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = sub[l] / (p + r)
				d[l+1] = sub[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				// Implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := sub[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3, c2, s2 = c2, c, s
					g = c * sub[i]
					h = float64(c * p) // it feeds the sum for d[i+1]
					r = pythag(p, sub[i])
					sub[i+1] = s * r
					s = sub[i] / r
					c = p / r
					p = float64(c*d[i]) - float64(s*g)
					d[i+1] = h + float64(s*(float64(c*g)+float64(s*d[i])))
					for k := 0; k < rows; k++ {
						h := z[k*n+i+1]
						z[k*n+i+1] = float64(s*z[k*n+i]) + float64(c*h)
						z[k*n+i] = float64(c*z[k*n+i]) - float64(s*h)
					}
				}
				p = -s * s2 * c3 * el1 * sub[l] / dl1
				sub[l] = s * p
				d[l] = c * p
				if math.Abs(sub[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		sub[l] = 0
	}

	// Sort eigenvalues ascending, permuting the columns of z to match.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			for r := 0; r < rows; r++ {
				z[r*n+i], z[r*n+k] = z[r*n+k], z[r*n+i]
			}
		}
	}
	return nil
}

// pythag returns sqrt(a²+b²) without destructive underflow or overflow.
func pythag(a, b float64) float64 {
	aa, ab := math.Abs(a), math.Abs(b)
	switch {
	case aa > ab:
		r := ab / aa
		return aa * math.Sqrt(1+float64(r*r))
	case ab == 0:
		return 0
	default:
		r := aa / ab
		return ab * math.Sqrt(1+float64(r*r))
	}
}
