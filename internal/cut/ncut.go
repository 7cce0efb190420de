package cut

import (
	"fmt"
	"math"

	"roadpart/internal/eigen"
	"roadpart/internal/linalg"
)

// NCutOp is the symmetric normalized Laplacian
// L_sym = I − D^{−1/2} A D^{−1/2}, whose k smallest eigenvectors yield the
// relaxed normalized-cut indicator vectors (Shi–Malik / NJW). Isolated
// nodes (zero degree) get an identity row, so they surface as their own
// trivial components.
type NCutOp struct {
	A       *linalg.CSR
	invSqrt []float64 // D^{-1/2}, 0 for isolated nodes
	tmp     []float64 // scratch for Apply; an op serves one eigensolve at a time
}

// NewNCutOp wraps the symmetric weighted adjacency matrix adj.
func NewNCutOp(adj *linalg.CSR) (*NCutOp, error) {
	if adj.Rows() != adj.Cols() {
		return nil, fmt.Errorf("cut: adjacency must be square, got %dx%d", adj.Rows(), adj.Cols())
	}
	d := adj.RowSums()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v > 0 {
			inv[i] = 1 / math.Sqrt(v)
		}
	}
	return &NCutOp{A: adj, invSqrt: inv, tmp: make([]float64, adj.Rows())}, nil
}

// Dim returns the operator order.
func (op *NCutOp) Dim() int { return op.A.Rows() }

// Apply computes dst = x − D^{−1/2} A D^{−1/2} x. The op-owned scratch
// keeps Apply allocation-free; like the operator's cached degree vector,
// it makes a single NCutOp unsafe for concurrent Apply calls (each
// eigensolve builds its own op, so the pipeline never shares one).
func (op *NCutOp) Apply(dst, x []float64) {
	n := op.Dim()
	tmp := op.tmp
	for i := 0; i < n; i++ {
		tmp[i] = op.invSqrt[i] * x[i]
	}
	op.A.MulVec(dst, tmp)
	for i := 0; i < n; i++ {
		dst[i] = x[i] - op.invSqrt[i]*dst[i]
	}
}

var _ eigen.Op = (*NCutOp)(nil)
