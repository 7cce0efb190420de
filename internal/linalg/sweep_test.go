package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// foldSizes straddle the chunk boundaries: one full chunk, one element
// past it, one short of two full chunks (the last serial size), exactly
// two, and four chunks with a short tail.
var foldSizes = []int{ChunkLen, ChunkLen + 1, 2*ChunkLen - 1, 2 * ChunkLen, 3*ChunkLen + 17}

// withWorkers runs fn for the worker counts w = 1, 2 and 3, with
// GOMAXPROCS raised to at least 3 so that three spans really run.
func withWorkers(t *testing.T, fn func(w int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	for _, w := range []int{1, 2, 3} {
		fn(w)
	}
}

// chunkDot is the chunk-ordered fold of Dot, built from Dot on each
// chunk: the oracle of every Sweep reduction. At n <= ChunkLen it is Dot.
func chunkDot(x, y []float64) float64 {
	s := Dot(x[:min(ChunkLen, len(x))], y[:min(ChunkLen, len(y))])
	for lo := ChunkLen; lo < len(x); lo += ChunkLen {
		hi := min(lo+ChunkLen, len(x))
		s += Dot(x[lo:hi], y[lo:hi])
	}
	return s
}

func testVec(n int, seed uint64) []float64 {
	rng := RNGFromState(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = (2*rng.Float64() - 1) * (1 + float64(i%7))
	}
	return v
}

// sweepChain runs the Gram–Schmidt step pattern on y against rows on a
// team of the given worker count: a Dot, an AxpyDot per row and a
// closing Axpy, returning every coefficient.
func sweepChain(workers int, y []float64, rows [][]float64) []float64 {
	team := NewTeam(len(y), workers)
	defer team.Close()
	var sw Sweep
	sw.Start(team, y, make([]float64, (len(y)+ChunkLen-1)/ChunkLen))
	c := sw.Dot(rows[0])
	cs := []float64{c}
	for i := 1; i < len(rows); i++ {
		c = sw.AxpyDot(-c/4, rows[i-1], rows[i])
		cs = append(cs, c)
	}
	sw.Axpy(-c/4, rows[len(rows)-1])
	return cs
}

// TestSweepMatchesChunkOracle pins every Sweep coefficient and every
// element of y to the unfused Axpy-then-Dot chain with chunk-ordered
// dots, under workers 1, 2 and 3: the bits depend on the chunks only,
// never on the span count. At one chunk the oracle is plain Dot.
func TestSweepMatchesChunkOracle(t *testing.T) {
	for _, n := range append([]int{97}, foldSizes...) {
		rows := make([][]float64, 6)
		for i := range rows {
			rows[i] = testVec(n, uint64(10+i))
		}
		want := testVec(n, 3)
		var wantC []float64
		c := chunkDot(want, rows[0])
		wantC = append(wantC, c)
		for i := 1; i < len(rows); i++ {
			Axpy(-c/4, rows[i-1], want)
			c = chunkDot(want, rows[i])
			wantC = append(wantC, c)
		}
		Axpy(-c/4, rows[len(rows)-1], want)

		withWorkers(t, func(w int) {
			y := testVec(n, 3)
			gotC := sweepChain(w, y, rows)
			for i := range wantC {
				if math.Float64bits(gotC[i]) != math.Float64bits(wantC[i]) {
					t.Fatalf("n=%d workers=%d: coefficient %d = %v, oracle %v", n, w, i, gotC[i], wantC[i])
				}
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d workers=%d: y[%d] = %v, oracle %v", n, w, i, y[i], want[i])
				}
			}
		})
	}
}

// TestSweepSerialAllocFree pins the serial sweep at zero allocations:
// below two full chunks, and at any size at one worker.
func TestSweepSerialAllocFree(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{2*ChunkLen - 1, 0}, {3*ChunkLen + 17, 1}} {
		team := NewTeam(tc.n, tc.workers)
		if team != nil {
			t.Fatalf("n=%d workers=%d made a team", tc.n, tc.workers)
		}
		y, x, part := testVec(tc.n, 1), testVec(tc.n, 2), make([]float64, 4)
		var sw Sweep
		allocs := testing.AllocsPerRun(20, func() {
			sw.Start(team, y, part)
			c := sw.Dot(x)
			c = sw.AxpyDot(-c, x, x)
			sw.Axpy(-c, x)
		})
		if allocs != 0 {
			t.Fatalf("n=%d workers=%d: the serial sweep allocates %v per run, want 0", tc.n, tc.workers, allocs)
		}
	}
}

// countSpans records how many times each (step, span) ran.
type countSpans struct {
	step int
	runs [][]atomic.Int32
}

func (c *countSpans) Span(s, spans int) { c.runs[c.step][s].Add(1) }

// TestTeamRunsEverySpanOnce runs many short steps, so the caller often
// claims spans its helpers have not reached, and checks that every span
// of every step ran exactly once and that Close releases the helpers.
// At one worker the team is the serial (nil) one, whose one span runs
// on the caller.
func TestTeamRunsEverySpanOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	withWorkers(t, func(w int) {
		team := NewTeam(4*ChunkLen, w)
		if w == 1 && team != nil {
			t.Fatal("one worker made a team")
		}
		if team.Spans() != w {
			t.Fatalf("workers=%d: %d spans", w, team.Spans())
		}
		const steps = 2000
		c := &countSpans{runs: make([][]atomic.Int32, steps)}
		for st := range c.runs {
			c.runs[st] = make([]atomic.Int32, w)
			c.step = st
			team.Run(c)
		}
		team.Close()
		for st := range c.runs {
			for s := range c.runs[st] {
				if r := c.runs[st][s].Load(); r != 1 {
					t.Fatalf("workers=%d: step %d span %d ran %d times", w, st, s, r)
				}
			}
		}
	})
	waitGoroutines(t, base)
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamSpans pins the span count: serial below two full chunks and
// at a worker count below 2, never more spans than GOMAXPROCS or chunks.
func TestTeamSpans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct{ n, workers, want int }{
		{2*ChunkLen - 1, 0, 1},
		{2 * ChunkLen, 0, 2},
		{2 * ChunkLen, 8, 2},
		{10 * ChunkLen, 8, 2},
		{10 * ChunkLen, 1, 1},
		{10 * ChunkLen, -5, 1},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			if got := teamSpans(tc.n, tc.workers); got != tc.want {
				t.Fatalf("teamSpans = %d, want %d", got, tc.want)
			}
		})
	}
}
