package eigen

import (
	"context"
	"math"
	"slices"
	"testing"

	"roadpart/internal/linalg"
)

// oracleCheck is the convergence check without the last-row bound: the
// full Rayleigh–Ritz solve and the full residual sum at every check.
func oracleCheck(ws *Workspace, p, cnt, k int, tol float64) (ok bool, r2, scale float64, err error) {
	ws.reduce(p)
	if err := ws.ritzVectors(p); err != nil {
		return false, 0, 0, err
	}
	r2, scale = ws.worstResidual(ws.d[:p], ws.z[:p*p], 0, p, cnt, k)
	bound := tol * scale
	return !(r2 > bound*bound), r2, scale, nil
}

// checkTrace summarises one traced solve.
type checkTrace struct {
	stop          int  // processed columns when the loop ended
	solved        bool // the last check passed
	rowChecks     int  // checks on a basis the last row can decide (rowsLastCoupled)
	rowOpen       int  // rowChecks with residual rows left (cnt > p)
	lastRow, full int  // checks failed by the last row, and checks that accumulated
	failFast      int  // last-row failures with a remainder before column p−1
	rowPasses     int  // passing checks among rowChecks
	tailCoupled   int  // last-row failures with offres[p−1] ≠ 0 (basis cap)
	restarts      int  // invariant-subspace restarts
}

// traceChecks runs lanczos' column loop under tol and, at every check
// column, holds the production check to oracleCheck. The counters tell
// how each check decided. A check that accumulated must leave the
// oracle's r² and scale, bit for bit, in ws.d and ws.z. A check failed
// by the last row must leave, in the last-row scratch, the oracle's
// scale and an r² above the bound and no larger than the oracle's, bit
// for bit the oracle's when no remainder precedes column p−1. The
// verdicts must match. Under convergenceTol it also requires the traced
// solve to return Lanczos' values and residual bits, which pins the
// trace, and so the stopping column, to the production loop.
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
		rowBasis := ws.rowsLastCoupled(p, cnt)
		lastRow, full := ritzChecksLastRow.Value(), ritzChecksFull.Value()
		tr.solved = ws.converged(p, cnt, k, tol)
		byRow, accumulated := ritzChecksLastRow.Value()-lastRow, ritzChecksFull.Value()-full
		if byRow+accumulated != 1 || (byRow == 1 && !rowBasis) {
			tb.Fatalf("n=%d k=%d p=%d: counted %d last_row and %d full checks (last-row basis %v)", n, k, p, byRow, accumulated, rowBasis)
		}
		if tr.solved != wantOK {
			tb.Fatalf("n=%d k=%d p=%d: verdict %v, oracle %v", n, k, p, tr.solved, wantOK)
		}
		var r2, scale float64
		var same bool
		if byRow == 1 {
			r2, scale = ws.worstResidual(ws.rowD[:p], ws.row[:p], p-1, p, cnt, k)
			bound := tol * scale
			exact := !slices.ContainsFunc(ws.offres[:p-1], func(x float64) bool { return x != 0 })
			same = r2 <= wantR2 && r2 > bound*bound && (!exact || math.Float64bits(r2) == math.Float64bits(wantR2))
			if !exact {
				tr.failFast++
			}
			if ws.offres[p-1] != 0 {
				tr.tailCoupled++
			}
		} else {
			r2, scale = ws.worstResidual(ws.d[:p], ws.z[:p*p], 0, p, cnt, k)
			same = math.Float64bits(r2) == math.Float64bits(wantR2)
		}
		if wantErr == nil && (!same || math.Float64bits(scale) != math.Float64bits(wantScale)) {
			tb.Fatalf("n=%d k=%d p=%d cnt=%d (last row %d): r² %v scale %v, oracle %v %v",
				n, k, p, cnt, byRow, r2, scale, wantR2, wantScale)
		}
		tr.lastRow += int(byRow)
		tr.full += int(accumulated)
		if rowBasis {
			tr.rowChecks++
			if cnt > p {
				tr.rowOpen++
			}
			if tr.solved {
				tr.rowPasses++
			}
		}
	}
	if tol != convergenceTol {
		return tr
	}
	p := tr.stop
	if !tr.solved {
		ws.reduce(p)
		if err := ws.ritzVectors(p); err != nil {
			tb.Fatal(err)
		}
	}
	r2, scale := ws.worstResidual(ws.d[:p], ws.z[:p*p], 0, p, cnt, k)
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
// re-solve at every check column (traceChecks) on four shapes of basis:
// cold, StartBlock-seeded (a last-row basis only at the cap), disconnected with
// invariant-subspace restarts and deflation remainders, and n ≤ m with
// the basis cap reached, where offres[p−1] ≠ 0. Each shape runs under
// the production tolerance (also tying the trace to Lanczos), a loose
// one that passes early and one that never passes.
func TestRitzCheckMatchesFullSolve(t *testing.T) {
	rng := linalg.RNGFromState(26)
	var cold, seeded, disc, capped checkTrace
	add := func(sum *checkTrace, tr checkTrace) {
		sum.rowChecks += tr.rowChecks
		sum.rowOpen += tr.rowOpen
		sum.lastRow += tr.lastRow
		sum.full += tr.full
		sum.tailCoupled += tr.tailCoupled
		sum.rowPasses += tr.rowPasses
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
	if cold.lastRow == 0 || cold.rowPasses == 0 {
		t.Errorf("vacuous: cold bases made %d checks failed by the last row, %d passing last-row-basis checks", cold.lastRow, cold.rowPasses)
	}
	if seeded.rowOpen != 0 || seeded.full == 0 {
		t.Errorf("seeded bases made %d last-row-basis checks with residual rows and %d accumulating checks, want a last-row basis only once no residual row is left", seeded.rowOpen, seeded.full)
	}
	if disc.failFast == 0 {
		t.Error("vacuous: no check on a deflation remainder failed by the last row")
	}
	if disc.restarts == 0 || disc.lastRow+disc.full == 0 {
		t.Errorf("vacuous: disconnected operators restarted %d times over %d checks", disc.restarts, disc.lastRow+disc.full)
	}
	if capped.tailCoupled == 0 {
		t.Error("vacuous: no last-row failure saw a basis-cap remainder on column p−1")
	}
}

// TestSymTridEigenRowSubsets requires the QL rotations applied to any
// subset of the transformation's rows to give exactly those rows of the
// full eigenvector matrix, and the same eigenvalues. It also pins the
// split reduction: accumulate leaves e as householder wrote it, moves
// the diagonal householder left on v's diagonal into d, and builds a
// transformation whose last row is e_{n−1}.
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
		householder(z, d, e, n)
		diag, sub := make([]float64, n), slices.Clone(e)
		for j := range diag {
			diag[j] = z[j*n+j]
		}
		accumulate(z, d, n)
		if !slices.Equal(d, diag) || !slices.Equal(e, sub) {
			t.Fatalf("trial %d (n=%d): accumulate gave d %v e %v, householder left diagonal %v e %v", trial, n, d, e, diag, sub)
		}
		last := make([]float64, n)
		last[n-1] = 1
		if !slices.Equal(z[(n-1)*n:], last) {
			t.Fatalf("trial %d: transformation's last row %v, want e_%d", trial, z[(n-1)*n:], n-1)
		}
		rows := rng.Perm(n)[:rng.Intn(n+1)]
		picked := make([]float64, 0, len(rows)*n)
		for _, r := range rows {
			picked = append(picked, z[r*n:(r+1)*n]...)
		}
		ds, es := slices.Clone(d), slices.Clone(e)
		if err := SymTridEigen(d, e, z, n, n); err != nil {
			t.Fatal(err)
		}
		if err := SymTridEigen(ds, es, picked, n, len(rows)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d, ds) {
			t.Fatalf("trial %d: eigenvalues %v with %d rows, %v with all", trial, ds, len(rows), d)
		}
		for i, r := range rows {
			if !slices.Equal(picked[i*n:(i+1)*n], z[r*n:(r+1)*n]) {
				t.Fatalf("trial %d: row %d alone %v, in the full matrix %v", trial, r, picked[i*n:(i+1)*n], z[r*n:(r+1)*n])
			}
		}
	}
}

// TestRitzChecksCounted reads the path counters around a cold solve,
// whose failing checks fail by the last row and whose one accumulating
// check is its stop; a seeded one that converges early, which
// accumulates at every check; and a seeded one that runs into the basis
// cap, whose last check sees the cap's remainder before column p−1 and
// fails by the last row, so it counts under last_row too.
func TestRitzChecksCounted(t *testing.T) {
	op := randomSym(120, 5)
	lastRow, full := ritzChecksLastRow.Value(), ritzChecksFull.Value()
	if _, err := Lanczos(context.Background(), op, 4, LanczosOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if ritzChecksLastRow.Value() == lastRow || ritzChecksFull.Value() != full+1 {
		t.Fatalf("cold solve: last_row %d → %d, full %d → %d, want one full check", lastRow, ritzChecksLastRow.Value(), full, ritzChecksFull.Value())
	}
	full = ritzChecksFull.Value()
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
