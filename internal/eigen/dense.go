package eigen

import (
	"fmt"
	"math"
)

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

// Vector returns the eigenvector for Values[j] as a freshly allocated slice.
func (d *Decomposition) Vector(j int) []float64 {
	if j < 0 || j >= len(d.Values) {
		panic(fmt.Sprintf("eigen: vector index %d out of range %d", j, len(d.Values)))
	}
	v := make([]float64, d.N)
	cols := len(d.Values)
	for i := 0; i < d.N; i++ {
		v[i] = d.Vectors[i*cols+j]
	}
	return v
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
	tred2(v, d, e, n, true)
	if err := SymTridEigen(d, e, v, n, n); err != nil {
		return nil, err
	}
	return &Decomposition{N: n, Values: d, Vectors: v}, nil
}

// tred2 reduces the symmetric matrix stored row-major in v (n×n) to
// tridiagonal form by orthogonal Householder similarity transformations.
// On exit d holds the diagonal, e[0..n-2] the sub-diagonal (e[i] couples
// rows i and i+1), and, when vectors is set, v the accumulated orthogonal
// transformation. Without vectors the accumulation is skipped and v is
// left as scratch. d and e are bit-identical either way: the
// accumulation never touches e and only moves each diagonal element
// v[j][j] of the reduced matrix into d. The accumulated transformation's
// last row is always e_{n-1} exactly, because every Householder step
// acts on rows 0..i-1 alone (docs/NUMERICS.md § The last-row check).
//
// The implementation follows the EISPACK/JAMA tred2 routine (which stores
// the coupling of rows i-1,i in e[i]); the final loop converts to this
// package's e[i]-couples-(i,i+1) convention.
func tred2(v, d, e []float64, n int, vectors bool) {
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
	}

	// Householder reduction to tridiagonal form.
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
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}

			// Apply similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				v[j*n+i] = f
				g = e[j] + v[j*n+j]*f
				for k := j + 1; k <= i-1; k++ {
					g += v[k*n+j] * d[k]
					e[k] += v[k*n+j] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v[k*n+j] -= f*e[k] + g*d[k]
				}
				d[j] = v[(i-1)*n+j]
				v[i*n+j] = 0
			}
		}
		d[i] = h
	}

	if vectors {
		// Accumulate transformations.
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
						g += v[k*n+i+1] * v[k*n+j]
					}
					for k := 0; k <= i; k++ {
						v[k*n+j] -= g * d[k]
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
	} else {
		// The loop above would move exactly these elements into d.
		for j := 0; j < n; j++ {
			d[j] = v[j*n+j]
		}
	}

	// Convert e to the e[i]-couples-(i,i+1) convention used by SymTridEigen.
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
}
