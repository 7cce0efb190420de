package eigen

import (
	"context"
	"math"
	"slices"
	"testing"

	"roadpart/internal/linalg"
)

// oracleCheck is the convergence check without the last-row path: the
// full Rayleigh–Ritz solve and the full residual sum at every check.
func oracleCheck(ws *Workspace, p, cnt, k int, tol float64) (ok bool, r2, scale float64, err error) {
	if err := ws.ritzSolve(p, true); err != nil {
		return false, 0, 0, err
	}
	r2, scale = ws.worstResidual(ws.z[:p*p], 0, p, cnt, k)
	bound := tol * scale
	return !(r2 > bound*bound), r2, scale, nil
}

// checkTrace summarises one traced solve.
type checkTrace struct {
	stop          int  // processed columns when the loop ended
	solved        bool // the last check passed
	lastRow, full int  // exact last-row and full checks
	failFast      int  // last-row checks that failed on a remainder basis
	lastRowPasses int  // passing checks on the last-row path
	tailCoupled   int  // exact last-row checks with offres[p−1] ≠ 0 (basis cap)
	restarts      int  // invariant-subspace restarts
}

// traceChecks runs lanczos' column loop under tol and, at every check
// column, holds the production check (verdict, r², scale and error) to
// oracleCheck bit for bit, except that a check failing fast on a
// remainder basis must report an r² above the bound and no larger than
// the oracle's. Under
// convergenceTol it also requires the traced solve to return Lanczos'
// values and residual bits, which pins the trace, and so the stopping
// column, to the production loop.
func traceChecks(tb testing.TB, a Op, k int, opts LanczosOptions, tol float64) checkTrace {
	tb.Helper()
	n := a.Dim()
	m := min(n, max(4*k+30, 80)) // as lanczos caps the basis
	rng := linalg.RNGFromState(opts.Seed ^ 0x9e3779b97f4a7c15)
	ws := &Workspace{}
	ws.reset(n, m)
	var tr checkTrace
	cnt := ws.seedBasis(opts.StartBlock, &rng)
	for tr.stop < cnt && !tr.solved {
		j, before := tr.stop, cnt
		cnt = ws.advance(a, j, cnt, &rng)
		if cnt > before && ws.h[before*m+j] == 0 {
			tr.restarts++ // a restart row carries no coupling
		}
		tr.stop++
		p := tr.stop
		if p < k+2 || p%8 != 0 {
			continue
		}
		wantOK, wantR2, wantScale, wantErr := oracleCheck(ws, p, cnt, k, tol)
		r2, scale, path, err := ws.ritzCheck(p, cnt, k, tol)
		sameR2 := math.Float64bits(r2) == math.Float64bits(wantR2)
		if bound := tol * scale; path == checkFailFast {
			sameR2 = r2 <= wantR2 && r2 > bound*bound
		}
		if (err != nil) != (wantErr != nil) || !sameR2 || math.Float64bits(scale) != math.Float64bits(wantScale) {
			tb.Fatalf("n=%d k=%d p=%d cnt=%d (path %d): r² %v scale %v err %v, oracle %v %v %v",
				n, k, p, cnt, path, r2, scale, err, wantR2, wantScale, wantErr)
		}
		switch path {
		case checkLastRow:
			tr.lastRow++
			if ws.offres[p-1] != 0 {
				tr.tailCoupled++
			}
		case checkFailFast:
			tr.failFast++
		default:
			tr.full++
		}
		tr.solved = ws.converged(p, cnt, k, tol)
		if tr.solved != wantOK {
			tb.Fatalf("n=%d k=%d p=%d: verdict %v, oracle %v", n, k, p, tr.solved, wantOK)
		}
		if tr.solved && path == checkLastRow {
			tr.lastRowPasses++
		}
	}
	if tol != convergenceTol {
		return tr
	}
	p := tr.stop
	if !tr.solved {
		if err := ws.ritzSolve(p, true); err != nil {
			tb.Fatal(err)
		}
	}
	r2, scale := ws.worstResidual(ws.z[:p*p], 0, p, cnt, k)
	dec, err := Lanczos(context.Background(), a, k, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if !slices.Equal(dec.Values, ws.d[:k]) || dec.Residual != math.Sqrt(r2)/scale {
		tb.Fatalf("n=%d k=%d: trace stopped at %d with values %v, Lanczos returned %v", n, k, p, ws.d[:k], dec.Values)
	}
	return tr
}

// gapOp is diagonal with the eigenvalues 0..gap-1 set far below a bulk
// packed into [100, 101): the low pairs converge within a few checks.
type gapOp struct{ n, gap int }

func (o gapOp) Dim() int { return o.n }
func (o gapOp) Apply(dst, x []float64) {
	for i := range dst {
		v := 100 + float64(i)/float64(o.n)
		if i < o.gap {
			v = float64(i)
		}
		dst[i] = v * x[i]
	}
}

// componentsLaplacian is the Laplacian of disjoint paths of the given
// sizes: one zero eigenvalue per path, so Lanczos restarts per path.
func componentsLaplacian(tb testing.TB, sizes []int) CSROp {
	var entries []symEntry
	n := 0
	for _, s := range sizes {
		for i := n; i < n+s; i++ {
			deg := 0.0
			if i > n {
				deg++
			}
			if i+1 < n+s {
				deg++
				entries = append(entries, symEntry{i, i + 1, -1})
			}
			entries = append(entries, symEntry{i, i, deg})
		}
		n += s
	}
	return CSROp{symCSR(tb, n, entries)}
}

// TestRitzCheckMatchesFullSolve holds the convergence check to the full
// re-solve at every check column, bit for bit, on four shapes of basis:
// cold, StartBlock-seeded (always the full path), disconnected with
// invariant-subspace restarts, and n ≤ m with the basis cap reached,
// where offres[p−1] ≠ 0. Each shape runs under the production tolerance
// (also tying the trace to Lanczos), a loose one that passes early and
// one that never passes.
func TestRitzCheckMatchesFullSolve(t *testing.T) {
	rng := linalg.RNGFromState(26)
	var cold, seeded, disc, capped checkTrace
	add := func(sum *checkTrace, tr checkTrace) {
		sum.lastRow += tr.lastRow
		sum.full += tr.full
		sum.tailCoupled += tr.tailCoupled
		sum.lastRowPasses += tr.lastRowPasses
		sum.failFast += tr.failFast
		sum.restarts += tr.restarts
	}
	tols := []float64{convergenceTol, 1e-3, 0}
	trials := 12
	if testing.Short() {
		trials = 4 // keeps the race pass fast; the solves share nothing
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		n := 3 + rng.Intn(131)
		k := min(n-2, 1+rng.Intn(12))
		ops := []Op{randomSym(n, seed), gapOp{n: max(n, 90), gap: 6}}
		for _, tol := range tols {
			for _, op := range ops {
				kk := min(k, op.Dim()-2)
				add(&cold, traceChecks(t, op, kk, LanczosOptions{Seed: seed}, tol))
				block := make([][]float64, 2+rng.Intn(3))
				for i := range block {
					block[i] = make([]float64, op.Dim())
					randUnitInto(&rng, block[i])
				}
				add(&seeded, traceChecks(t, op, kk, LanczosOptions{Seed: seed, StartBlock: block}, tol))
			}
			sizes := make([]int, 2+rng.Intn(5))
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(30)
			}
			lap := componentsLaplacian(t, sizes)
			add(&disc, traceChecks(t, lap, min(len(sizes)+1, lap.Dim()-2), LanczosOptions{Seed: seed}, tol))
			nc := 8 * (2 + rng.Intn(9)) // n = m, a multiple of 8: the last check sits at the cap
			add(&capped, traceChecks(t, randomSym(nc, seed+100), min(12, nc-2), LanczosOptions{Seed: seed}, tol))
		}
	}
	t.Logf("cold %+v, seeded %+v, disconnected %+v, capped %+v", cold, seeded, disc, capped)
	if cold.lastRow == 0 || cold.lastRowPasses == 0 {
		t.Errorf("vacuous: cold bases made %d last-row checks, %d passing", cold.lastRow, cold.lastRowPasses)
	}
	if seeded.lastRow != 0 || seeded.full == 0 {
		t.Errorf("seeded bases made %d exact last-row and %d full checks, want no exact last-row check", seeded.lastRow, seeded.full)
	}
	if disc.failFast == 0 {
		t.Error("vacuous: no check on a deflation remainder failed by the last row")
	}
	if disc.restarts == 0 || disc.lastRow+disc.full == 0 {
		t.Errorf("vacuous: disconnected operators restarted %d times over %d checks", disc.restarts, disc.lastRow+disc.full)
	}
	if capped.tailCoupled == 0 {
		t.Error("vacuous: no last-row check saw a basis-cap remainder on column p−1")
	}
}

// TestSymTridEigenRowSubsets requires the QL rotations applied to any
// subset of the transformation's rows to give exactly those rows of the
// full eigenvector matrix, and the same eigenvalues, and requires tred2
// without vectors to give the same d and e, with the accumulated
// transformation's last row e_{n−1}.
func TestSymTridEigenRowSubsets(t *testing.T) {
	rng := linalg.RNGFromState(27)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		a := randomSym(n, uint64(trial)+1000)
		if trial%5 == 0 { // repeated eigenvalues
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, float64((i+j)%2))
				}
			}
		}
		z := slices.Clone(a.data)
		d, e := make([]float64, n), make([]float64, n)
		tred2(z, d, e, n, true)
		v := slices.Clone(a.data)
		dv, ev := make([]float64, n), make([]float64, n)
		tred2(v, dv, ev, n, false)
		if !slices.Equal(d, dv) || !slices.Equal(e, ev) {
			t.Fatalf("trial %d (n=%d): tred2 without vectors gave d %v e %v, with %v %v", trial, n, dv, ev, d, e)
		}
		last := make([]float64, n)
		last[n-1] = 1
		if !slices.Equal(z[(n-1)*n:], last) {
			t.Fatalf("trial %d: transformation's last row %v, want e_%d", trial, z[(n-1)*n:], n-1)
		}
		rows := rng.Perm(n)[:rng.Intn(n+1)]
		sub := make([]float64, 0, len(rows)*n)
		for _, r := range rows {
			sub = append(sub, z[r*n:(r+1)*n]...)
		}
		ds, es := slices.Clone(d), slices.Clone(e)
		if err := SymTridEigen(d, e, z, n, n); err != nil {
			t.Fatal(err)
		}
		if err := SymTridEigen(ds, es, sub, n, len(rows)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d, ds) {
			t.Fatalf("trial %d: eigenvalues %v with %d rows, %v with all", trial, ds, len(rows), d)
		}
		for i, r := range rows {
			if !slices.Equal(sub[i*n:(i+1)*n], z[r*n:(r+1)*n]) {
				t.Fatalf("trial %d: row %d alone %v, in the full matrix %v", trial, r, sub[i*n:(i+1)*n], z[r*n:(r+1)*n])
			}
		}
	}
}

// TestRitzChecksCounted reads the path counters around a cold solve,
// which checks by the last row; a seeded one that converges early, which
// re-solves; and a seeded one that runs into the basis cap, whose last
// check sees the cap's remainder before column p−1 and fails by the last
// row, so it counts under last_row too.
func TestRitzChecksCounted(t *testing.T) {
	op := randomSym(120, 5)
	lastRow, full := ritzChecksLastRow.Value(), ritzChecksFull.Value()
	if _, err := Lanczos(context.Background(), op, 4, LanczosOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if ritzChecksLastRow.Value() == lastRow || ritzChecksFull.Value() != full {
		t.Fatalf("cold solve: last_row %d → %d, full %d → %d", lastRow, ritzChecksLastRow.Value(), full, ritzChecksFull.Value())
	}
	rng := linalg.RNGFromState(5)
	block := [][]float64{make([]float64, 120), make([]float64, 120)}
	for _, b := range block {
		randUnitInto(&rng, b)
	}
	lastRow = ritzChecksLastRow.Value()
	if _, err := Lanczos(context.Background(), gapOp{n: 120, gap: 6}, 4, LanczosOptions{Seed: 1, StartBlock: block}); err != nil {
		t.Fatal(err)
	}
	if ritzChecksFull.Value() == full || ritzChecksLastRow.Value() != lastRow {
		t.Fatalf("seeded solve: last_row %d → %d, full %d → %d", lastRow, ritzChecksLastRow.Value(), full, ritzChecksFull.Value())
	}
	full = ritzChecksFull.Value()
	if _, err := Lanczos(context.Background(), op, 4, LanczosOptions{Seed: 1, StartBlock: block}); err != nil {
		t.Fatal(err)
	}
	if ritzChecksFull.Value() == full || ritzChecksLastRow.Value() == lastRow {
		t.Fatalf("capped seeded solve: last_row %d → %d, full %d → %d", lastRow, ritzChecksLastRow.Value(), full, ritzChecksFull.Value())
	}
}
