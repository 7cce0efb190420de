package eigen

import (
	"fmt"

	"roadpart/internal/linalg"
)

// RankOneOp is the sparse-plus-rank-one symmetric operator
//
//	M·x = Diag∘x + U·(Uᵀx)/S − A·x
//
// presented through matrix–vector products only; M is never materialized.
// It is the solver-side form of the paper's α-Cut matrix family
// (Equation 6 and its scalar-α ablation; see docs/NUMERICS.md § The
// sparse-plus-rank-one matvec):
//
//   - α-Cut (Eq. 6): M = (d·dᵀ)/s − A with d the weighted degree vector
//     and s = 1ᵀD1 — Diag nil, U = d, S = s.
//   - scalar α-Cut: M = αD − A — Diag = α·d, U nil.
//
// One Apply costs O(nnz + n): one sparse matvec, one pass for the
// diagonal/negation, and two dot-product-shaped passes for the rank-one
// term. S = 0 or a nil U disables the rank-one term; a nil Diag means a
// zero diagonal part (plain −A plus the rank-one term).
//
// The arithmetic order is fixed (sparse product, then diagonal/negation,
// then rank-one axpy) and is part of the determinism contract of
// docs/NUMERICS.md: every solve over the same operator runs the same
// floating-point sequence.
type RankOneOp struct {
	// A is the sparse symmetric part, subtracted from the rest.
	A *linalg.CSR
	// Diag is the optional diagonal term Diag∘x; nil means zero.
	Diag []float64
	// U is the optional rank-one factor; nil disables the rank-one term.
	U []float64
	// S is the rank-one denominator: the term applied is U·(Uᵀx)/S.
	// S = 0 disables the rank-one term (a graph with no edges has s = 0,
	// and Equation 6's rank-one part vanishes with it).
	S float64
}

// NewRankOneOp validates the operator's shapes against the sparse part.
func NewRankOneOp(a *linalg.CSR, diag, u []float64, s float64) (*RankOneOp, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("eigen: RankOneOp needs a square sparse part, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	if diag != nil && len(diag) != n {
		return nil, fmt.Errorf("eigen: RankOneOp diagonal length %d != order %d", len(diag), n)
	}
	if u != nil && len(u) != n {
		return nil, fmt.Errorf("eigen: RankOneOp rank-one factor length %d != order %d", len(u), n)
	}
	return &RankOneOp{A: a, Diag: diag, U: u, S: s}, nil
}

// Dim returns the operator order.
func (op *RankOneOp) Dim() int { return op.A.Rows() }

// Apply computes dst = Diag∘x + U·(Uᵀx)/S − A·x in O(nnz + n) without
// materializing the operator. dst and x must not alias.
func (op *RankOneOp) Apply(dst, x []float64) {
	op.A.MulVec(dst, x)
	if op.Diag != nil {
		for i := range dst {
			dst[i] = float64(op.Diag[i]*x[i]) - dst[i]
		}
	} else {
		for i := range dst {
			dst[i] = -dst[i]
		}
	}
	if op.U != nil && op.S != 0 {
		linalg.Axpy(linalg.Dot(op.U, x)/op.S, op.U, dst)
	}
}

var _ Op = (*RankOneOp)(nil)
