package linalg

import (
	"sync/atomic"

	"roadpart/internal/obs"
	"roadpart/internal/parallel"
)

// matvecCSR tallies one increment per MulVec call (not per row), so the
// cost is a single atomic add against O(nnz) kernel work. The count is
// deterministic for a given workload — the Lanczos iteration count per
// eigensolve is seed-fixed.
var matvecCSR = obs.Default().Counter("roadpart_linalg_matvec_total",
	"Matrix-vector products computed, by matrix kind.", "kind", "csr")

// csrMulVecCutoff is the minimum row count for the row-parallel
// CSR.MulVec: each dst row is written by exactly one goroutine and the
// per-row accumulation order is unchanged, so the result is
// bit-identical to the serial loop for any worker count. Below it one
// Lanczos matvec is a few microseconds and spawn cost dominates, so small
// operators — the meta-graph bipartitions, the supergraph tail — stay
// serial.
const csrMulVecCutoff = 2048

// mulVecWorkers is the package-wide worker cap for the MulVec kernels
// and the Team spans: 0 selects GOMAXPROCS, 1 forces serial. Set once at
// startup via SetWorkers; the kernels read it atomically.
var mulVecWorkers atomic.Int32

// SetWorkers caps the goroutines used by the row-parallel MulVec kernels
// and by a Team: the Lanczos reorthogonalization sweep (Sweep) and the
// Ritz-vector assembly. 0 restores the default (GOMAXPROCS, which also
// caps every Team); 1 forces the serial path. Results are bit-identical
// for every setting — this is purely a resource knob.
func SetWorkers(w int) {
	if w < 0 {
		w = 1
	}
	mulVecWorkers.Store(int32(w))
}

// mulVecSpan picks the worker count for a matvec over n rows, returning
// 1 whenever the parallel path isn't worthwhile.
func mulVecSpan(n int) int {
	if n < csrMulVecCutoff {
		return 1
	}
	return parallel.Resolve(int(mulVecWorkers.Load()), n)
}
