package linalg

import (
	"sync/atomic"

	"roadpart/internal/obs"
)

// matvecCSR tallies one increment per MulVec call (not per row), so the
// cost is a single atomic add against O(nnz) kernel work. The count is
// deterministic for a given workload — the Lanczos iteration count per
// eigensolve is seed-fixed.
var matvecCSR = obs.Default().Counter("roadpart_linalg_matvec_total",
	"Matrix-vector products computed, by matrix kind.", "kind", "csr")

// teamWorkers is the package-wide cap on the spans of a Team: 0 selects
// GOMAXPROCS, 1 forces serial. Set once at startup via SetWorkers; NewTeam
// reads it atomically.
var teamWorkers atomic.Int32

// SetWorkers caps the spans of a Team, the only way this package splits
// work across goroutines: the Lanczos reorthogonalization sweep (Sweep)
// and the Ritz-vector assembly. 0 restores the default (GOMAXPROCS); 1
// runs every step on the calling goroutine. Results are bit-identical
// for every setting — this is purely a resource knob.
func SetWorkers(w int) {
	if w < 0 {
		w = 1
	}
	teamWorkers.Store(int32(w))
}
