package eigen

import "math"

// Decomposition holds the result of a symmetric eigendecomposition:
// Values[j] is the j-th smallest eigenvalue and the j-th column of Vectors
// is its (unit-norm) eigenvector. Vectors is row-major n×len(Values).
type Decomposition struct {
	N       int
	Values  []float64
	Vectors []float64
	// Residual is the worst relative residual bound of the returned
	// pairs, max_j ‖A·y_j − θ_j·y_j‖ / max|θ|, where the maximum in the
	// denominator runs over every Ritz value of the final basis. Lanczos
	// computes it from the Rayleigh matrix exactly as its convergence
	// check does; SymEigen leaves it zero.
	Residual float64
}

// SymEigen computes the full eigendecomposition of the symmetric
// operator a: it applies a to each unit vector, filling an n×n scratch
// column by column, and solves that by Householder tridiagonalization
// and implicit QL. Eigenvalues are returned in ascending order with
// orthonormal eigenvectors in the corresponding columns. It costs n
// applications and O(n³) time, so it serves as the test oracle for
// Lanczos and the reference of the eigensolver ablation.
//
// SymEigen does not verify symmetry; the result is meaningful only for
// (numerically) symmetric operators. A 0-dimensional operator has the
// empty decomposition.
func SymEigen(a Op) (*Decomposition, error) {
	n := a.Dim()
	if n == 0 {
		return &Decomposition{}, nil
	}
	v := make([]float64, n*n)
	unit, col := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		unit[j] = 1
		a.Apply(col, unit)
		unit[j] = 0
		for i, x := range col {
			v[i*n+j] = x
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	householder(v, d, e, n)
	accumulate(v, d, n)
	if err := SymTridEigen(d, e, v, n, n); err != nil {
		return nil, err
	}
	return &Decomposition{N: n, Values: d, Vectors: v}, nil
}

// householder reduces the symmetric matrix stored row-major in v (n×n)
// to tridiagonal form by orthogonal Householder similarity
// transformations. On exit e[0..n-2] holds the sub-diagonal (e[i] couples
// rows i and i+1), the diagonal sits on v's diagonal, the Householder
// vectors below it, and d[1..n-1] their h values: the input accumulate
// needs to build the transformation. The transformation's last row is
// always e_{n-1} exactly, because every Householder step acts on rows
// 0..i-1 alone (docs/NUMERICS.md § The last-row check).
//
// householder and accumulate follow the EISPACK/JAMA tred2 routine
// (which stores the coupling of rows i-1,i in e[i]); householder's last
// loop converts to this package's e[i]-couples-(i,i+1) convention, which
// the accumulation never reads.
func householder(v, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
	}

	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v[(i-1)*n+j]
				v[i*n+j] = 0
				v[j*n+i] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += float64(d[k] * d[k])
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= float64(f * g)
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}

			// Apply similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				v[j*n+i] = f
				g = e[j] + float64(v[j*n+j]*f)
				for k := j + 1; k <= i-1; k++ {
					g += float64(v[k*n+j] * d[k])
					e[k] += float64(v[k*n+j] * f)
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += float64(e[j] * d[j])
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= float64(hh * d[j])
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v[k*n+j] -= float64(f*e[k]) + float64(g*d[k])
				}
				d[j] = v[(i-1)*n+j]
				v[i*n+j] = 0
			}
		}
		d[i] = h
	}

	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
}

// accumulate turns householder's output in v and d into the orthogonal
// transformation, in v, and moves the tridiagonal's diagonal into d. It
// uses d[:i+1] as scratch at step i, after reading the h value d[i+1].
func accumulate(v, d []float64, n int) {
	for i := 0; i < n-1; i++ {
		v[(n-1)*n+i] = v[i*n+i]
		v[i*n+i] = 1
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v[k*n+i+1] / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += float64(v[k*n+i+1] * v[k*n+j])
				}
				for k := 0; k <= i; k++ {
					v[k*n+j] -= float64(g * d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v[k*n+i+1] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
		v[(n-1)*n+j] = 0
	}
	v[(n-1)*n+n-1] = 1
}
