package eigen

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"roadpart/internal/linalg"
)

// pathOp builds the CSR adjacency of a weighted path graph for tests; its
// size stays below two full chunks, so the sweeps run on the serial team.
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

// chunkDot is linalg.Dot as a chunk-ordered fold: Dot over each
// linalg.ChunkLen-element chunk, the partials added left to right. At
// n <= ChunkLen it is linalg.Dot.
func chunkDot(x, y []float64) float64 {
	s := linalg.Dot(x[:min(linalg.ChunkLen, len(x))], y[:min(linalg.ChunkLen, len(y))])
	for lo := linalg.ChunkLen; lo < len(x); lo += linalg.ChunkLen {
		hi := min(lo+linalg.ChunkLen, len(x))
		s += linalg.Dot(x[lo:hi], y[lo:hi])
	}
	return s
}

// oracleOrthogonalize is the unfused two-pass modified Gram–Schmidt loop
// the fused orthogonalize replaced, with chunk-ordered dots: a Dot then
// an Axpy per basis row, twice, recording the first pass's coefficients
// as Rayleigh-matrix column col when col >= 0. At n <= linalg.ChunkLen
// it is the unfused loop verbatim.
func oracleOrthogonalize(ws *Workspace, v []float64, cnt, col int) {
	m := ws.m
	for i := 0; i < cnt; i++ {
		qi := ws.q[i]
		c := chunkDot(v, qi)
		if col >= 0 {
			ws.h[i*m+col] = c
			ws.h[col*m+i] = c
		}
		linalg.Axpy(-c, qi, v)
	}
	for i := 0; i < cnt; i++ {
		qi := ws.q[i]
		linalg.Axpy(-chunkDot(v, qi), qi, v)
	}
}

// orthogonalizeCase fills ws.w with a fixed non-unit, non-uniform vector
// and orthogonalizes it against the first cnt basis rows.
func orthogonalizeCase(ws *Workspace, seed uint64, cnt, col int, oracle bool) {
	rng := linalg.RNGFromState(seed)
	randUnitInto(&rng, ws.w)
	for i := range ws.w {
		ws.w[i] *= 1 + float64(i%7)
	}
	if oracle {
		oracleOrthogonalize(ws, ws.w, cnt, col)
	} else {
		ws.orthogonalize(ws.w, cnt, col)
	}
}

// sameBits fails unless v and H of the two workspaces are equal bit for
// bit.
func sameBits(t *testing.T, what string, got, want *Workspace) {
	t.Helper()
	for i := range got.w {
		if math.Float64bits(got.w[i]) != math.Float64bits(want.w[i]) {
			t.Fatalf("%s: v[%d] = %v, want %v", what, i, got.w[i], want.w[i])
		}
	}
	for i := range got.h {
		if math.Float64bits(got.h[i]) != math.Float64bits(want.h[i]) {
			t.Fatalf("%s: H[%d] = %v, want %v", what, i, got.h[i], want.h[i])
		}
	}
}

// TestOrthogonalizeMatchesUnfused pins the fused reorthogonalization to
// the unfused loops with chunk-ordered dots bit for bit — every element
// of the orthogonalized vector and every recorded Rayleigh coefficient —
// for basis sizes from empty to a dozen rows, with and without an H
// column, on one chunk (where the oracle is today's unfused loop) and on
// four, on a team of GOMAXPROCS spans.
func TestOrthogonalizeMatchesUnfused(t *testing.T) {
	const m = 14
	for _, n := range []int{97, 3*linalg.ChunkLen + 17} {
		rng := linalg.RNGFromState(5)
		fused, plain := &Workspace{}, &Workspace{}
		fused.reset(n, m)
		plain.reset(n, m)
		fused.team = linalg.NewTeam(n, 0)
		defer fused.stopTeam()
		for cnt := 0; cnt < 12; cnt++ {
			for _, col := range []int{-1, cnt} {
				seed := uint64(100*cnt + col + 1)
				orthogonalizeCase(fused, seed, cnt, col, false)
				orthogonalizeCase(plain, seed, cnt, col, true)
				sameBits(t, fmt.Sprintf("n=%d cnt=%d col=%d", n, cnt, col), fused, plain)
			}
			// Grow both bases by the same random row.
			if !fused.restartRows(&rng, cnt) {
				t.Fatal("random row rejected")
			}
			copy(plain.q[cnt], fused.q[cnt])
		}
	}
}

// withWorkers runs fn for the worker counts w = 1, 2 and 3, with
// GOMAXPROCS raised to at least 3 so that three spans really run.
func withWorkers(t *testing.T, fn func(w int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	for _, w := range []int{1, 2, 3} {
		fn(w)
	}
}

// TestOrthogonalizeWorkerIndependent pins the orthogonalization's bits
// across the chunk boundaries and the serial/parallel threshold: workers
// 1, 2 and 3 give the same v and H, with and without an H column.
func TestOrthogonalizeWorkerIndependent(t *testing.T) {
	const m, cnt = 8, 6
	for _, n := range []int{linalg.ChunkLen, linalg.ChunkLen + 1, 2*linalg.ChunkLen - 1, 2 * linalg.ChunkLen, 3*linalg.ChunkLen + 17} {
		want := map[int]*Workspace{}
		withWorkers(t, func(w int) {
			ws := &Workspace{}
			ws.reset(n, m)
			ws.team = linalg.NewTeam(n, w)
			defer ws.stopTeam()
			rng := linalg.RNGFromState(uint64(n))
			randUnitInto(&rng, ws.q[0])
			for r := 1; r < cnt; r++ {
				if !ws.restartRows(&rng, r) {
					t.Fatal("random row rejected")
				}
			}
			for _, col := range []int{-1, cnt} {
				orthogonalizeCase(ws, 9, cnt, col, false)
				if w == 1 {
					want[col] = &Workspace{w: slices.Clone(ws.w), h: slices.Clone(ws.h)}
					continue
				}
				sameBits(t, fmt.Sprintf("n=%d workers=%d col=%d", n, w, col), ws, want[col])
			}
		})
	}
}

// TestLanczosWorkerIndependent solves on an operator of three chunks,
// where the reorthogonalization and the Ritz-vector assembly both split
// over the solve's team, and requires bit-identical decompositions at
// workers 1, 2 and 3; workers 1 runs the whole solve on the serial team.
func TestLanczosWorkerIndependent(t *testing.T) {
	op := CSROp{M: pathOp(t, 2*linalg.ChunkLen+17)}
	var want *Decomposition
	withWorkers(t, func(w int) {
		d, err := Lanczos(context.Background(), op, 6, LanczosOptions{Seed: 11, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = d
			return
		}
		decompEqual(t, want, d)
		if d.Residual != want.Residual {
			t.Fatalf("workers=%d: residual %v, %v under 1", w, d.Residual, want.Residual)
		}
	})
}

// TestParallelSolveAllocsFlat pins one team per solve: on the 8,209-node
// path operator at two workers, a solve of 150 basis columns allocates
// no more than one of 80, so no orthogonalization starts a team of its
// own. It counts runtime.MemStats.Mallocs because testing.AllocsPerRun
// runs at GOMAXPROCS 1, where no team starts.
func TestParallelSolveAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("six solves of an 8,209-node operator")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	op := CSROp{M: pathOp(t, 2*linalg.ChunkLen+17)}
	ws := &Workspace{}
	// solve returns the fewest allocations of three solves for k pairs,
	// so a collection's finalizer or a grown buffer does not count, and
	// the basis columns each processed.
	solve := func(k int) (allocs uint64, columns int) {
		allocs = math.MaxUint64
		for range 3 {
			columns = 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := lanczos(context.Background(), countingOp{op, &columns}, k, LanczosOptions{Seed: 1, Workers: 2}, ws)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs = min(allocs, after.Mallocs-before.Mallocs)
		}
		return allocs, columns
	}
	long, longCols := solve(30)
	short, shortCols := solve(4)
	if longCols < shortCols+50 {
		t.Fatalf("the solves processed %d and %d columns, want at least 50 apart", longCols, shortCols)
	}
	if long > short+2 {
		t.Fatalf("%d columns allocate %d times, %d columns %d times: allocations grow with the basis", longCols, long, shortCols, short)
	}
}

// TestLanczosReleasesTeamHelpers checks that a solve on a team lets its
// helpers go on both return paths, a finished solve and one whose
// context is already cancelled, and leaves no team in its workspace.
func TestLanczosReleasesTeamHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	op := CSROp{M: pathOp(t, 2*linalg.ChunkLen+17)}
	base := runtime.NumGoroutine()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ws := &Workspace{}
	for _, ctx := range []context.Context{context.Background(), cancelled} {
		_, err := lanczos(ctx, op, 4, LanczosOptions{Seed: 1, Workers: 2}, ws)
		if (err != nil) != (ctx == cancelled) {
			t.Fatalf("solve error %v", err)
		}
		if ws.team != nil {
			t.Fatal("the workspace kept the solve's team")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the solves, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
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
