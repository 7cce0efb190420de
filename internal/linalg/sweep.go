package linalg

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"roadpart/internal/parallel"
)

// ChunkLen is the chunk length of the chunk-ordered fold that every
// Sweep reduction uses: the partial sums over fixed ChunkLen-element
// chunks, each summed in index order, folded left to right. A vector of
// at most ChunkLen elements is one chunk, so its sums are bit for bit
// Dot's and AxpyDot's. The chunks, not the goroutines, fix the
// summation order, so the bits never depend on the worker count
// (docs/NUMERICS.md § Determinism).
const ChunkLen = 4096

// teamSpans returns the number of spans a Team of the given worker
// count over an n-element vector splits a step into: 1 (serial) below
// two full chunks, otherwise workers resolved against the chunk count
// (0 selects GOMAXPROCS, below 1 is serial), never more than GOMAXPROCS.
func teamSpans(n, workers int) int {
	if n < 2*ChunkLen {
		return 1
	}
	w := parallel.Resolve(workers, (n+ChunkLen-1)/ChunkLen)
	return min(w, runtime.GOMAXPROCS(0))
}

// A Spanner is one step of Team work split into contiguous spans:
// Span(s, spans) does span s of spans, touching nothing another span
// writes.
type Spanner interface {
	Span(s, spans int)
}

// Team runs a sequence of steps, each split into spans: span 0 on the
// calling goroutine, each further span on its own helper goroutine, with
// one barrier per step. A helper claims its span with a CAS on a
// per-step flag, and the caller, once its own span is done, claims every
// span no helper has started. So a helper that is not scheduled costs
// the serial time of its span, never a stall. Waits spin, yielding the
// processor every 64 spins.
//
// A Team is driven by one goroutine. Close releases the helpers without
// waiting for them, since a helper that has not run yet would make that
// wait the stall the claims avoid; a Team must not be used after it.
//
// A nil *Team is the serial team: one span, run on the calling
// goroutine, so a caller has one code path whether NewTeam made a team
// or not.
type Team struct {
	spans int
	w     Spanner
	step  atomic.Int64 // last published step; -1 once closed
	flags []spanFlags  // per span; span 0 is the caller's and unused
}

// spanFlags holds the last step a span was claimed for and the last step
// it finished, padded to its own cache line.
type spanFlags struct {
	claim, done atomic.Int64
	_           [48]byte
}

// NewTeam returns a Team of up to workers spans (0 selects GOMAXPROCS)
// for steps over an n-element vector, or nil (the serial team) when they
// should run serially: below two full chunks, at one worker or with
// GOMAXPROCS 1. It starts one helper goroutine per span after the first;
// it is the only place in this package that starts goroutines.
func NewTeam(n, workers int) *Team {
	spans := teamSpans(n, workers)
	if spans < 2 {
		return nil
	}
	t := &Team{spans: spans, flags: make([]spanFlags, spans)}
	for s := 1; s < spans; s++ {
		go t.help(s)
	}
	return t
}

// Spans returns the number of spans each step is split into.
func (t *Team) Spans() int {
	if t == nil {
		return 1
	}
	return t.spans
}

// Run does one step: w.Span(s, spans) for every span s, returning when
// all of them have finished.
func (t *Team) Run(w Spanner) {
	if t == nil {
		w.Span(0, 1)
		return
	}
	t.w = w
	st := t.step.Load() + 1
	t.step.Store(st)
	w.Span(0, t.spans)
	for s := 1; s < t.spans; s++ {
		if f := &t.flags[s]; f.claim.CompareAndSwap(st-1, st) {
			w.Span(s, t.spans)
			f.done.Store(st)
		}
	}
	for s := 1; s < t.spans; s++ {
		for spins := 1; t.flags[s].done.Load() != st; spins++ {
			if spins%64 == 0 {
				runtime.Gosched()
			}
		}
	}
}

// Close releases the helpers. A helper that has not started yet exits as
// soon as it runs, touching nothing but the Team.
func (t *Team) Close() {
	if t != nil {
		t.step.Store(-1)
	}
}

// help is the loop of the helper for span s: it claims span s of every
// step it sees published before the caller does, and exits on Close.
func (t *Team) help(s int) {
	f := &t.flags[s]
	var seen int64
	for spins := 1; ; spins++ {
		st := t.step.Load()
		if st < 0 {
			return
		}
		if st != seen {
			seen, spins = st, 0
			if f.claim.CompareAndSwap(st-1, st) {
				t.w.Span(s, t.spans)
				f.done.Store(st)
			}
			continue
		}
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}

// Sweep is the Gram–Schmidt sweep of one vector y: a chain of steps,
// each y += a·x fused with the inner product of the updated y with the
// next basis row z. Every inner product is a chunk-ordered fold over
// ChunkLen-element chunks. A step computes the chunks' partial sums as
// the spans of a Team, or as the one span of the serial team, and folds
// them left to right; the partials and their fold do not depend on the
// span count, so every step's bits are the same for any worker count.
//
// A Sweep runs on a team its caller owns and allocates nothing: its step
// lives in the Sweep, so the Sweep must live on the heap (in a reused
// workspace, say) for handing the step to a team to stay free.
type Sweep struct {
	cur  sweepStep // the current step
	team *Team     // nil: the serial team
}

// sweepStep is one step of a sweep over y, a Spanner over the chunks.
type sweepStep struct {
	y, part []float64
	a       float64
	x, z    []float64 // nil x: no update; nil z: no reduction
}

// Start starts a sweep over the non-empty vector y on team t (nil: the
// serial team). part holds the per-chunk partial sums and needs at least
// ⌈len(y)/ChunkLen⌉ elements; its contents are overwritten.
func (sw *Sweep) Start(t *Team, y, part []float64) {
	sw.cur = sweepStep{y: y, part: part[:(len(y)+ChunkLen-1)/ChunkLen]}
	sw.team = t
}

// Dot returns the chunk-ordered inner product y·z.
func (sw *Sweep) Dot(z []float64) float64 { return sw.step(0, nil, z) }

// AxpyDot computes y += a*x and returns the chunk-ordered inner product
// of the updated y with z. Within a chunk every element and the partial
// sum are AxpyDot's.
func (sw *Sweep) AxpyDot(a float64, x, z []float64) float64 { return sw.step(a, x, z) }

// Axpy computes y += a*x.
func (sw *Sweep) Axpy(a float64, x []float64) { sw.step(a, x, nil) }

func (sw *Sweep) step(a float64, x, z []float64) float64 {
	st := &sw.cur
	if n := len(st.y); (x != nil && len(x) != n) || (z != nil && len(z) != n) {
		panic(fmt.Sprintf("linalg: Sweep length mismatch %d, %d, %d", len(x), n, len(z)))
	}
	st.a, st.x, st.z = a, x, z
	// The serial step is a direct call: Team.Run's nil case would make
	// it an interface call.
	if sw.team == nil {
		st.Span(0, 1)
	} else {
		sw.team.Run(st)
	}
	s := st.part[0]
	for _, p := range st.part[1:] {
		s += p
	}
	return s
}

// Span runs the current step on the chunks of span s.
func (st *sweepStep) Span(s, spans int) {
	n, chunks := len(st.y), len(st.part)
	for c := s * chunks / spans; c < (s+1)*chunks/spans; c++ {
		lo := c * ChunkLen
		st.part[c] = chunkStep(st.a, st.x, st.y, st.z, lo, min(lo+ChunkLen, n))
	}
}

// chunkStep runs one step on y[lo:hi] and returns the chunk's partial
// sum (0 without a reduction).
func chunkStep(a float64, x, y, z []float64, lo, hi int) float64 {
	switch {
	case z == nil:
		Axpy(a, x[lo:hi], y[lo:hi])
		return 0
	case x == nil:
		return Dot(y[lo:hi], z[lo:hi])
	default:
		return AxpyDot(a, x[lo:hi], y[lo:hi], z[lo:hi])
	}
}
