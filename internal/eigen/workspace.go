package eigen

import (
	"runtime"
	"sync/atomic"

	"roadpart/internal/linalg"
	"roadpart/internal/obs"
)

// Workspace holds every scratch buffer a block Lanczos run needs — the
// basis (start vector, Krylov expansions and restarts), the iteration
// vectors, the dense Rayleigh matrix H = QᵀAQ with its Ritz solve
// scratch, and the column assembly buffer — so repeated eigensolves
// (sweep after sweep, request after request) reuse memory instead of
// reallocating O(m·n) per call.
//
// Ownership and reset rules (the memory-discipline contract of
// docs/PERFORMANCE.md):
//
//   - A Workspace may be reused across calls and may contain arbitrary
//     garbage between them — lanczos fully overwrites or zeroes every
//     buffer it reads, so a dirty workspace never changes results:
//     pooled and fresh-workspace runs are bit-identical.
//   - A Workspace must not be shared by concurrent lanczos calls.
//     Lanczos passes nil and lets the package's pool hand each
//     concurrent solve its own workspace.
//   - Decomposition outputs are always freshly allocated; they never
//     alias workspace memory, so results stay valid after the workspace
//     is reused or repooled.
//
// The zero value is ready to use; buffers grow on demand and are
// retained for the next run.
type Workspace struct {
	n, m int

	kryl   []float64   // m×n row-major basis backing store
	q      [][]float64 // row views into kryl, q[j] = kryl[j*n:(j+1)*n]
	w      []float64   // operator product / residual, length n
	h      []float64   // m×m Rayleigh matrix H = QᵀAQ, zeroed by reset
	offres []float64   // per-column off-basis residual norms, capacity m
	d      []float64   // Ritz eigenvalues, capacity m
	e      []float64   // Ritz tridiagonal scratch, capacity m
	z      []float64   // Ritz solve scratch matrix, capacity m×m
	row    []float64   // last-row check coordinates, capacity m
	rowD   []float64   // last-row check Ritz values, capacity m
	rowE   []float64   // last-row check tridiagonal scratch, capacity m
	col    []float64   // Ritz column assembly buffer, length n
}

// reset sizes the workspace for an order-n operator and an m-column
// basis, growing buffers as needed. The Rayleigh matrix h is zeroed —
// unwritten couplings must read as exactly zero for the residual bound —
// while every other buffer's contents are unspecified; lanczos
// overwrites everything else it reads.
func (ws *Workspace) reset(n, m int) {
	ws.n, ws.m = n, m
	if cap(ws.kryl) < m*n {
		ws.kryl = make([]float64, m*n)
	}
	ws.kryl = ws.kryl[:m*n]
	if cap(ws.q) < m {
		ws.q = make([][]float64, m)
	}
	ws.q = ws.q[:m]
	for j := 0; j < m; j++ {
		ws.q[j] = ws.kryl[j*n : (j+1)*n]
	}
	ws.w = grow(ws.w, n)
	ws.col = grow(ws.col, n)
	ws.h = grow(ws.h, m*m)
	for i := range ws.h {
		ws.h[i] = 0
	}
	ws.offres = grow(ws.offres, m)
	ws.d = grow(ws.d, m)
	ws.e = grow(ws.e, m)
	ws.z = grow(ws.z, m*m)
	ws.row = grow(ws.row, m)
	ws.rowD = grow(ws.rowD, m)
	ws.rowE = grow(ws.rowE, m)
}

// grow returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// footprint returns the workspace's buffer capacity in bytes, for the
// pool's bytes-reused accounting.
func (ws *Workspace) footprint() int {
	floats := cap(ws.kryl) + cap(ws.w) + cap(ws.col) + cap(ws.h) + cap(ws.offres) +
		cap(ws.d) + cap(ws.e) + cap(ws.z) + cap(ws.row) + cap(ws.rowD) + cap(ws.rowE)
	return 8 * floats
}

// advance processes basis column j of a cnt-row basis and returns the new
// row count. The column contributes one operator application, one
// Rayleigh-matrix column (H[i][j] = the first orthogonalization pass's
// coefficients, β on the appended residual row) and, unless the residual
// deflates or the basis is full, one new basis row; otherwise β stays in
// offres[j]. When that leaves every row processed, an invariant subspace
// was found and the chain restarts from a fresh direction orthogonal to
// the basis, drawn from rng.
func (ws *Workspace) advance(a Op, j, cnt int, rng *linalg.RNG) int {
	m := ws.m
	beta := ws.columnStep(a, j, cnt)
	ws.offres[j] = beta
	if beta > deflationTol && cnt < m {
		qn := ws.q[cnt]
		for i, wv := range ws.w {
			qn[i] = wv / beta
		}
		ws.h[cnt*m+j] = beta
		ws.h[j*m+cnt] = beta
		ws.offres[j] = 0 // residual captured as basis row cnt
		cnt++
	}
	if j+1 == cnt && cnt < m && ws.restartRows(rng, cnt) {
		cnt++
	}
	return cnt
}

// columnStep processes basis column j against the cnt current basis rows:
// it applies the operator to q[j], orthogonalizes the product against
// the whole basis (recording the first pass's coefficients as
// Rayleigh-matrix column j), and returns the residual norm β_j.
//
// The kernel allocates nothing — it is the Lanczos-iteration
// allocation-free pin of docs/PERFORMANCE.md.
func (ws *Workspace) columnStep(a Op, j, cnt int) float64 {
	a.Apply(ws.w, ws.q[j])
	ws.orthogonalize(ws.w, cnt, j)
	return linalg.Norm2(ws.w)
}

// orthogonalize runs two modified Gram–Schmidt passes of v against basis
// rows 0..cnt-1 in place. When col >= 0 the first pass's coefficients
// are recorded as Rayleigh-matrix column col, mirrored so H stays
// symmetric.
//
// Each subtraction and the next coefficient share one sweep over v
// (linalg.AxpyDot), so the two passes read v 2·cnt+1 times instead of
// 4·cnt. Every coefficient and every element of v is the same float as
// in the unfused Axpy-then-Dot loop (docs/NUMERICS.md § Determinism).
func (ws *Workspace) orthogonalize(v []float64, cnt, col int) {
	if cnt == 0 {
		return
	}
	m := ws.m
	c := linalg.Dot(v, ws.q[0])
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < cnt; i++ {
			if pass == 0 && col >= 0 {
				ws.h[i*m+col] = c
				ws.h[col*m+i] = c
			}
			next := i + 1
			if next == cnt {
				if pass == 1 {
					linalg.Axpy(-c, ws.q[i], v)
					return
				}
				next = 0
			}
			c = linalg.AxpyDot(-c, ws.q[i], v, ws.q[next])
		}
	}
}

// restartRows installs a fresh deterministic random direction orthogonal
// to basis rows 0..cnt-1 as row cnt, for the invariant-subspace restart:
// a candidate survives when it keeps a norm above 1e-8 after
// orthogonalization. It reports whether one did within five attempts; a
// rejected candidate leaves row cnt as scratch.
func (ws *Workspace) restartRows(rng *linalg.RNG, cnt int) bool {
	for attempt := 0; attempt < 5; attempt++ {
		randUnitInto(rng, ws.q[cnt])
		ws.orthogonalize(ws.q[cnt], cnt, -1)
		if linalg.Normalize(ws.q[cnt]) > 1e-8 {
			return true
		}
	}
	return false
}

// Workspace pool: Lanczos draws from here. It is a single shared slot,
// wsLast, holding the most recently released workspace: the next solve
// takes it whichever goroutine or P it runs on. A workspace released
// while the slot is taken — one of several concurrent solves — is
// dropped for the collector rather than kept in a second tier, so the
// pool never keeps more than one Krylov basis alive; concurrent solves
// allocate the extra bases they need.
var (
	wsLast  atomic.Pointer[Workspace]
	wsIdle  atomic.Int32 // collections since wsLast was last filled
	wsTally = obs.NewPoolTally("eigen_workspace")
)

func init() { watchCollections() }

// gcTick is a throwaway object whose finalizer runs after a collection.
// The pointer field keeps it out of the tiny allocator, whose shared
// blocks can delay a finalizer indefinitely.
type gcTick struct{ _ *byte }

// watchCollections empties wsLast once its workspace has sat unused
// through two collections, the grace a sync.Pool gives its own items, so
// an idle process still releases the basis. It re-arms itself from the
// finalizer, once per collection.
func watchCollections() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		if wsIdle.Add(1) >= 2 {
			wsLast.Store(nil)
		}
		watchCollections()
	})
}

func getWorkspace() *Workspace {
	if ws := wsLast.Swap(nil); ws != nil {
		wsTally.Hit(ws.footprint())
		return ws
	}
	wsTally.Miss()
	return &Workspace{}
}

func putWorkspace(ws *Workspace) {
	if wsLast.CompareAndSwap(nil, ws) {
		wsIdle.Store(0)
	}
}
