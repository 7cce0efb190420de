package eigen

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"roadpart/internal/linalg"
)

// pathOp builds the CSR adjacency of a weighted path graph for tests; its
// size stays below the matvec parallel cutoff so Apply is serial.
func pathOp(t *testing.T, n int) *linalg.CSR {
	t.Helper()
	var entries []symEntry
	for i := 0; i+1 < n; i++ {
		entries = append(entries, symEntry{i, i + 1, 1 + float64(i%3)})
	}
	return symCSR(t, n, entries)
}

func decompEqual(t *testing.T, a, b *Decomposition) {
	t.Helper()
	if a.N != b.N || len(a.Values) != len(b.Values) {
		t.Fatalf("shape mismatch: N %d vs %d, k %d vs %d", a.N, b.N, len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("value %d: %v != %v", i, a.Values[i], b.Values[i])
		}
	}
	for i := range a.Vectors {
		if a.Vectors[i] != b.Vectors[i] {
			t.Fatalf("vector entry %d: %v != %v", i, a.Vectors[i], b.Vectors[i])
		}
	}
}

// TestLanczosWSDirtyWorkspaceBitIdentical is the dirty-workspace reset
// test: a workspace left full of garbage by a previous (differently
// sized) run must produce the same bits as a fresh solve. It poisons
// every []float64 field of Workspace, found by reflection, so a buffer
// added later is covered without editing the test.
func TestLanczosWSDirtyWorkspaceBitIdentical(t *testing.T) {
	opts := LanczosOptions{Seed: 42}
	big := CSROp{M: pathOp(t, 300)}
	small := CSROp{M: pathOp(t, 120)}

	fresh, err := Lanczos(context.Background(), small, 4, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, poison := range []float64{math.NaN(), math.Inf(1)} {
		ws := &Workspace{}
		if _, err := lanczos(context.Background(), big, 6, opts, ws); err != nil {
			t.Fatal(err)
		}
		// Poison everything the previous run left behind, up to each
		// buffer's capacity.
		buffers := 0
		wv := reflect.ValueOf(ws).Elem()
		for i := 0; i < wv.NumField(); i++ {
			f := wv.Field(i)
			if f.Type() != reflect.TypeFor[[]float64]() {
				continue
			}
			s := *(*[]float64)(unsafe.Pointer(f.UnsafeAddr()))
			s = s[:cap(s)]
			for j := range s {
				s[j] = poison
			}
			buffers++
		}
		if buffers < 11 {
			t.Fatalf("poisoned %d []float64 buffers, want every one of Workspace's (at least 11)", buffers)
		}
		reused, err := lanczos(context.Background(), small, 4, opts, ws)
		if err != nil {
			t.Fatal(err)
		}
		decompEqual(t, fresh, reused)
	}
}

// TestLanczosNilWorkspacePoolIdentical checks that the pool-backed path
// (Lanczos, nil workspace) matches an explicit workspace bit for bit.
func TestLanczosNilWorkspacePoolIdentical(t *testing.T) {
	op := CSROp{M: pathOp(t, 200)}
	opts := LanczosOptions{Seed: 7}
	pooled, err := Lanczos(context.Background(), op, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := lanczos(context.Background(), op, 5, opts, &Workspace{})
	if err != nil {
		t.Fatal(err)
	}
	decompEqual(t, pooled, explicit)
}

// TestLanczosStepAllocFree pins the Lanczos iteration kernel — the
// operator product plus the fused two-pass reorthogonalization — at zero
// allocations, one of the three allocation-free hot-path pins of
// docs/PERFORMANCE.md. ws.columnStep only writes H column 0 and w, so
// repeating column 0 with the same basis row is a faithful steady-state
// probe; the Rayleigh–Ritz convergence check is pinned alongside it
// because it runs between columns on the same hot path.
func TestLanczosStepAllocFree(t *testing.T) {
	op := CSROp{M: pathOp(t, 256)}
	ws := &Workspace{}
	ws.reset(op.Dim(), 12)
	rng := linalg.RNGFromState(99)
	randUnitInto(&rng, ws.q[0])
	for cnt := 1; cnt < 6; cnt++ { // a few rows, so the fused sweeps chain
		if !ws.restartRows(&rng, cnt) {
			t.Fatal("random row rejected")
		}
	}
	allocs := testing.AllocsPerRun(50, func() { ws.columnStep(op, 0, 6) })
	if allocs != 0 {
		t.Fatalf("Workspace.columnStep allocates %v per call, want 0", allocs)
	}
	// Process a few columns for real so the convergence check has a
	// meaningful prefix, then pin it at zero allocations too.
	ws.reset(op.Dim(), 12)
	randUnitInto(&rng, ws.q[0])
	cnt := 1
	for j := 0; j < 6; j++ {
		cnt = ws.advance(op, j, cnt, &rng)
	}
	// A failing check fails on the last row alone; a passing one
	// accumulates the transformation.
	for _, tol := range []float64{1e-30, 1e30} {
		allocs = testing.AllocsPerRun(50, func() { ws.converged(6, cnt, 2, tol) })
		if allocs != 0 {
			t.Fatalf("Workspace.converged (tol %g) allocates %v per call, want 0", tol, allocs)
		}
	}
	if !ws.converged(6, cnt, 2, 1e30) {
		t.Fatal("a 1e30 tolerance should pass")
	}
}

// TestLanczosConcurrentPooledIdentical runs many pool-backed solves in
// parallel; under -race this proves pooled workspaces are never shared,
// and the output check proves reuse cannot perturb results.
func TestLanczosConcurrentPooledIdentical(t *testing.T) {
	op := CSROp{M: pathOp(t, 180)}
	opts := LanczosOptions{Seed: 3}
	want, err := Lanczos(context.Background(), op, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	got := make([]*Decomposition, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = Lanczos(context.Background(), op, 4, opts)
		}(g)
	}
	wg.Wait()
	for g := 0; g < 16; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		decompEqual(t, want, got[g])
	}
}

// oracleOrthogonalize is the unfused two-pass modified Gram–Schmidt loop
// the fused orthogonalize replaced, kept verbatim: a Dot then an Axpy
// per basis row, twice, recording the first pass's coefficients as
// Rayleigh-matrix column col when col >= 0.
func oracleOrthogonalize(ws *Workspace, v []float64, cnt, col int) {
	m := ws.m
	for i := 0; i < cnt; i++ {
		qi := ws.q[i]
		c := linalg.Dot(v, qi)
		if col >= 0 {
			ws.h[i*m+col] = c
			ws.h[col*m+i] = c
		}
		linalg.Axpy(-c, qi, v)
	}
	for i := 0; i < cnt; i++ {
		qi := ws.q[i]
		linalg.Axpy(-linalg.Dot(v, qi), qi, v)
	}
}

// TestOrthogonalizeMatchesUnfused pins the fused reorthogonalization to
// the unfused loops bit for bit — every element of the orthogonalized
// vector and every recorded Rayleigh coefficient — for basis sizes from
// empty to a dozen rows, with and without an H column.
func TestOrthogonalizeMatchesUnfused(t *testing.T) {
	const n, m = 97, 14
	rng := linalg.RNGFromState(5)
	fused, plain := &Workspace{}, &Workspace{}
	fused.reset(n, m)
	plain.reset(n, m)
	for cnt := 0; cnt < 12; cnt++ {
		for _, col := range []int{-1, cnt} {
			randUnitInto(&rng, fused.w)
			for i := range fused.w {
				fused.w[i] *= 1 + float64(i%7) // not unit, not uniform
			}
			copy(plain.w, fused.w)
			fused.orthogonalize(fused.w, cnt, col)
			oracleOrthogonalize(plain, plain.w, cnt, col)
			for i := range fused.w {
				if math.Float64bits(fused.w[i]) != math.Float64bits(plain.w[i]) {
					t.Fatalf("cnt=%d col=%d: v[%d] = %v, unfused %v", cnt, col, i, fused.w[i], plain.w[i])
				}
			}
			for i := range fused.h {
				if math.Float64bits(fused.h[i]) != math.Float64bits(plain.h[i]) {
					t.Fatalf("cnt=%d col=%d: H[%d] = %v, unfused %v", cnt, col, i, fused.h[i], plain.h[i])
				}
			}
		}
		// Grow both bases by the same random row.
		if !fused.restartRows(&rng, cnt) {
			t.Fatal("random row rejected")
		}
		copy(plain.q[cnt], fused.q[cnt])
	}
}

// TestReleasedWorkspaceIsReused pins the shared slot: the next solve
// gets the last released workspace back even when it runs on another
// goroutine, and so possibly another P, whose sync.Pool private slot
// would miss it.
func TestReleasedWorkspaceIsReused(t *testing.T) {
	ws := getWorkspace()
	putWorkspace(ws)
	got := make(chan *Workspace)
	go func() { got <- getWorkspace() }()
	other := <-got
	defer putWorkspace(other)
	if other != ws {
		t.Fatal("the last released workspace was not reused")
	}
}

// TestSecondWorkspaceIsDropped pins the pool's memory bound: of two
// workspaces released by concurrent solves, only the first stays for
// reuse, so the pool never keeps a second Krylov basis alive.
func TestSecondWorkspaceIsDropped(t *testing.T) {
	a, b := getWorkspace(), getWorkspace()
	putWorkspace(a)
	putWorkspace(b)
	first, second := getWorkspace(), getWorkspace()
	defer putWorkspace(first)
	if first != a {
		t.Fatal("the first released workspace was not reused")
	}
	if second == a || second == b {
		t.Fatal("a workspace released while the slot was taken was kept")
	}
}

// TestIdleWorkspaceIsReleased checks that the shared slot lets go of a
// workspace no solve has taken through two collections, as the pool
// would.
func TestIdleWorkspaceIsReleased(t *testing.T) {
	putWorkspace(getWorkspace())
	for i := 0; i < 100 && wsLast.Load() != nil; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let the finalizer goroutine run
	}
	if wsLast.Load() != nil {
		t.Fatal("an idle workspace stayed in the slot through 100 collections")
	}
}
