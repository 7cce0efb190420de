package eigen

import (
	"context"
	"fmt"
	"math"

	"roadpart/internal/linalg"
	"roadpart/internal/obs"
)

// Op is a symmetric linear operator presented through matrix–vector
// products. Implementations must compute dst = A·x without retaining either
// slice; dst and x never alias.
type Op interface {
	// Dim returns the order n of the operator.
	Dim() int
	// Apply computes dst = A·x. Both slices have length Dim().
	Apply(dst, x []float64)
}

// deflationTol is the residual norm below which a Krylov direction is
// treated as contained in the current basis (an invariant subspace was
// found) and the chain restarts from a fresh orthogonal direction.
const deflationTol = 1e-12

// convergenceTol is the residual tolerance for declaring a Ritz pair
// converged: the iteration stops at the first periodic check where all k
// requested pairs satisfy ‖M·y − θ·y‖ ≤ convergenceTol·max|θ| (the
// residual is computed exactly from the Rayleigh matrix's tail couplings
// and the deflation remainders; docs/NUMERICS.md § Early termination).
const convergenceTol = 1e-8

// lanczosResidual records every solve's Decomposition.Residual, in
// decades around convergenceTol.
var lanczosResidual = obs.Default().Histogram("roadpart_eigen_residual",
	"Worst relative residual bound max ‖A·y − θ·y‖ / max|θ| of the Ritz pairs each Lanczos solve returns (tolerance 1e-8).",
	[]float64{1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1})

// ritzChecks count the periodic convergence checks by how they decided
// (see Workspace.converged): last_row is the share the last-row bound
// fails without accumulating the transformation.
const ritzChecksHelp = "Periodic Lanczos convergence checks, by path: last_row checks failed by one coordinate row of the Ritz vectors alone, full checks accumulated the transformation and decided on the whole residual sum (every passing check among them)."

var (
	ritzChecksLastRow = obs.Default().Counter("roadpart_eigen_ritz_checks_total", ritzChecksHelp, "path", "last_row")
	ritzChecksFull    = obs.Default().Counter("roadpart_eigen_ritz_checks_total", ritzChecksHelp, "path", "full")
)

// LanczosOptions tunes the iterative solver (the block Lanczos variant
// with full reorthogonalization and an explicit Rayleigh–Ritz projection;
// docs/NUMERICS.md § The Lanczos variant). The zero value selects
// reasonable defaults.
type LanczosOptions struct {
	// Seed drives the deterministic start vector and every
	// invariant-subspace restart direction. The same seed always yields
	// the same decomposition (docs/NUMERICS.md § Determinism).
	Seed uint64
}

// Lanczos computes the k algebraically smallest eigenpairs of the symmetric
// operator a with a block Lanczos iteration: full reorthogonalization
// against the whole basis (two passes), an explicit dense Rayleigh–Ritz
// projection H = QᵀAQ solved by Householder tridiagonalization + QL, and
// residual-based early termination. It implements the eigensolver step of
// the paper's Algorithm 3 (line 5); the numerical contract — variant
// choice, restart policy and determinism semantics — is specified in
// docs/NUMERICS.md.
//
// Full reorthogonalization costs O(m²n) for an m-column basis but
// eliminates the ghost-eigenvalue problem entirely, which matters here:
// the α-Cut spectrum has tight clusters near its lower end, exactly where
// spurious copies appear with selective reorthogonalization. The explicit
// Rayleigh matrix (rather than the classic three-term tridiagonal) keeps
// every coupling the reorthogonalization records, restarts included, so
// with the stored deflation remainders the convergence check certifies
// the residual exactly.
//
// If the Krylov space exhausts the operator (an invariant subspace is
// found) the iteration restarts with a fresh deterministic direction
// orthogonal to everything found so far, so disconnected graphs are
// handled correctly.
//
// ctx is the iteration budget: the loop checks it before every basis
// column (one operator application plus O(m·n) orthogonalization) and
// returns a clean error wrapping ctx.Err() when it expires, so a
// pathological operator under a deadline degrades to an error instead of
// spinning. The column count is always bounded by min(n, max(4k+30, 80)),
// and the invariant-subspace restart tries at most five fresh directions,
// so even with context.Background() the iteration terminates.
//
// Lanczos draws its scratch from the package workspace pool, so
// steady-state runs allocate only the returned Decomposition.
func Lanczos(ctx context.Context, a Op, k int, opts LanczosOptions) (*Decomposition, error) {
	return lanczos(ctx, a, k, opts, nil)
}

// lanczos is Lanczos computing in the given workspace. ws may be dirty
// (every buffer read is first overwritten or zeroed, so reuse is
// bit-identical to a fresh workspace) but must not be shared by
// concurrent calls. A nil ws borrows one from the package pool for the
// duration of the call.
func lanczos(ctx context.Context, a Op, k int, opts LanczosOptions, ws *Workspace) (*Decomposition, error) {
	n := a.Dim()
	if k <= 0 {
		return nil, fmt.Errorf("eigen: Lanczos needs k >= 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("eigen: Lanczos k=%d exceeds operator order %d", k, n)
	}
	// m caps the basis dimension: the start vector, Krylov expansions
	// and restarts combined.
	m := min(n, max(4*k+30, 80))
	rng := linalg.RNGFromState(opts.Seed ^ 0x9e3779b97f4a7c15)

	if ws == nil {
		ws = getWorkspace()
		defer putWorkspace(ws)
	}
	ws.reset(n, m)

	randUnitInto(&rng, ws.q[0])
	cnt := 1

	// Process basis columns in order (Workspace.advance). The loop ends
	// when every column is processed (proc == cnt with no replenishment
	// possible) or a periodic Rayleigh–Ritz solve certifies the k
	// requested pairs under convergenceTol.
	proc := 0
	solved := false
	for proc < cnt {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("eigen: Lanczos interrupted after %d of %d columns: %w", proc, m, err)
		}
		cnt = ws.advance(a, proc, cnt, &rng)
		proc++
		if proc >= k+2 && proc%8 == 0 && ws.converged(proc, cnt, k, convergenceTol) {
			solved = true
			break
		}
	}

	p := proc
	if !solved {
		ws.reduce(p)
		if err := ws.ritzVectors(p); err != nil {
			return nil, err
		}
	}
	if k > p {
		k = p
	}

	// Assemble the k smallest Ritz pairs: y_j = Q · s_j. The outputs are
	// freshly allocated — a Decomposition outlives (and is cached beyond)
	// the workspace that produced it.
	z := ws.z[:p*p]
	vec := make([]float64, n*k)
	col := ws.col
	for j := 0; j < k; j++ {
		for i := range col {
			col[i] = 0
		}
		for i := 0; i < p; i++ {
			linalg.Axpy(z[i*p+j], ws.q[i], col)
		}
		linalg.Normalize(col)
		for i := 0; i < n; i++ {
			vec[i*k+j] = col[i]
		}
	}
	vals := make([]float64, k)
	copy(vals, ws.d[:k])
	r2, scale := ws.worstResidual(ws.d[:p], z, 0, p, cnt, k)
	res := math.Sqrt(r2) / scale
	lanczosResidual.Observe(res)
	return &Decomposition{N: n, Values: vals, Vectors: vec, Residual: res}, nil
}

// reduce copies the p×p leading principal block of the Rayleigh matrix
// H = QᵀAQ into ws.z and reduces it to tridiagonal form (householder):
// ws.e[:p] holds the sub-diagonal, ws.z the diagonal and the Householder
// vectors, ws.d[:p] their h values. It allocates nothing.
func (ws *Workspace) reduce(p int) {
	m := ws.m
	z := ws.z[:p*p]
	for i := 0; i < p; i++ {
		copy(z[i*p:(i+1)*p], ws.h[i*m:i*m+p])
	}
	householder(z, ws.d[:p], ws.e[:p], p)
}

// ritzVectors finishes the solve reduce(p) began: on return ws.d[:p]
// holds the Ritz values ascending and ws.z[:p*p] the Ritz coordinate
// vectors (row-major, vectors in columns). It allocates nothing.
func (ws *Workspace) ritzVectors(p int) error {
	z, d := ws.z[:p*p], ws.d[:p]
	accumulate(z, d, p)
	return SymTridEigen(d, ws.e[:p], z, p, p)
}

// converged solves the Rayleigh–Ritz problem over the p processed columns
// and reports whether the k smallest Ritz pairs are all converged under
// tol. The residual of a Ritz pair (θ, y = Q_p·s) is computed exactly
// from the stored couplings: A·Q_p = Q_cnt·H[:, :p] up to the off-basis
// deflation remainders, so
//
//	‖A·y − θ·y‖² = Σ_{r=p}^{cnt-1} (H[r, :p]·s)² + Σ_{c<p} (offres[c]·s_c)²
//
// — the first sum covers the residual rows outside the processed prefix,
// the second the deflated (or basis-capped) directions that never became
// rows.
//
// The check reduces H once, then rotates the row e_{p−1} of the
// transformation on copies of the tridiagonal: the Ritz values and
// coordinate s_{p−1} of every vector, bit for bit the full solve's. Every
// basis row r is created at column r−1 (a residual row) or after it with
// no coupling (a restart row), so the residual rows r ≥ p couple to the
// prefix only through column p−1 (H[r][c] = 0 for c < p−1). Summed over
// s_{p−1} alone, the residual therefore leaves out only the remainder
// terms offres[c]·s_c for c < p−1, squares added before the last term,
// so by the monotonicity of rounded addition each pair's r² is at most
// its full one, and equal to it when no remainder precedes p−1. A finite
// r²max above (tol·scale)² fails the check as the full sum would. The
// values, the row and the remainders must be finite for that: a NaN
// residual never displaces a finite one, so a NaN term could lower the
// full maximum. Every other check accumulates the same reduction and
// decides on the full sum, so a passing check leaves the full solve in
// ws.d and ws.z (docs/NUMERICS.md § The last-row check). It allocates
// nothing.
func (ws *Workspace) converged(p, cnt, k int, tol float64) bool {
	if k > p {
		return false
	}
	ws.reduce(p)
	d, e, row := ws.rowD[:p], ws.rowE[:p], ws.row[:p]
	for j := range d {
		d[j] = ws.z[j*p+j]
	}
	copy(e, ws.e[:p])
	clear(row)
	row[p-1] = 1
	if err := SymTridEigen(d, e, row, p, 1); err != nil {
		ritzChecksLastRow.Inc()
		return false // the full solve runs the same QL iterations
	}
	r2, scale := ws.worstResidual(d, row, p-1, p, cnt, k)
	bound := tol * scale
	if r2 > bound*bound && !math.IsInf(r2, 1) && finite(d) && finite(row) && finite(ws.offres[:p]) {
		ritzChecksLastRow.Inc()
		return false
	}
	ritzChecksFull.Inc()
	if ws.ritzVectors(p) != nil {
		return false
	}
	r2, scale = ws.worstResidual(ws.d[:p], ws.z[:p*p], 0, p, cnt, k)
	bound = tol * scale
	return !(r2 > bound*bound)
}

// finite reports whether every value of v is finite.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// worstResidual returns the largest squared residual ‖A·y − θ·y‖² of the
// k smallest of the p Ritz pairs with values d, computed from the stored
// couplings as converged documents, and the scale max|θ| the tolerance
// is relative to (1 when every Ritz value is zero). z holds rows
// first..p−1 of the Ritz coordinate vectors (row-major, p columns):
// first is 0 for the full solve, p−1 for the last row, which is exact
// when no remainder precedes p−1 (the residual rows never couple before
// it) and a lower bound otherwise.
// A NaN residual never displaces a finite one. It allocates nothing.
func (ws *Workspace) worstResidual(d, z []float64, first, p, cnt, k int) (r2max, scale float64) {
	for _, v := range d {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	m := ws.m
	for j := 0; j < k; j++ {
		r2 := 0.0
		for r := p; r < cnt; r++ {
			hr := ws.h[r*m+first : r*m+p]
			dot := 0.0
			for c, s := range hr {
				dot += s * z[c*p+j]
			}
			r2 += dot * dot
		}
		for c := first; c < p; c++ {
			t := ws.offres[c] * z[(c-first)*p+j]
			r2 += t * t
		}
		if r2 > r2max {
			r2max = r2
		}
	}
	return r2max, scale
}

// randUnitInto fills v with a deterministic pseudo-random unit vector,
// overwriting any previous contents. It allocates nothing.
func randUnitInto(rng *linalg.RNG, v []float64) {
	for i := range v {
		v[i] = 2*rng.Float64() - 1
		if v[i] == 0 {
			v[i] = 0.5
		}
	}
	if linalg.Normalize(v) == 0 {
		v[0] = 1
	}
}

// Residual returns ‖A·v − λ·v‖₂ for diagnostic and test use.
func Residual(a Op, lambda float64, v []float64) float64 {
	w := make([]float64, a.Dim())
	a.Apply(w, v)
	linalg.Axpy(-lambda, v, w)
	return linalg.Norm2(w)
}
