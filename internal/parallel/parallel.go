// Package parallel provides the small, deterministic, bounded worker
// pools used by the partitioning hot paths: the k-sweep in core, the
// k-means restarts and the experiments fan-out (the Lanczos kernels in
// linalg split their steps on a linalg.Team instead). It implements no
// paper section itself — it is the execution substrate under all three
// modules of the paper's framework (Figure 2), added for the
// production-scale goals in ROADMAP.md.
//
// Design rules, in priority order:
//
//  1. Determinism: every helper assigns work by index and collects
//     results by index, so the output (including which error is
//     reported) never depends on goroutine scheduling. Callers that keep
//     per-index work independent get byte-identical results for any
//     worker count.
//  2. Boundedness: at most `workers` goroutines run at once; a worker
//     count of 0 selects runtime.GOMAXPROCS(0) and negative counts
//     clamp to 1 (serial).
//  3. Zero overhead when serial: with one worker (or one item) the work
//     runs inline on the calling goroutine — no channels, no spawns —
//     so Workers=1 is exactly the serial program.
//  4. Cooperative cancellation: the index loops observe ctx between
//     items (never mid-item — one work item is the cancellation grain),
//     always drain started work before returning, and never leak a
//     goroutine. Uncancelled, they run every index exactly once.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers knob to a concrete worker count: 0 selects
// GOMAXPROCS, negative values clamp to 1, and the count is capped at n
// (the number of independent work items) when n is positive.
func Resolve(workers, n int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

// ForCtx runs fn(i) for every i in [0, n) on up to `workers` goroutines
// (0 = GOMAXPROCS). Indices are handed out atomically, so each index runs
// at most once; fn must treat distinct indices as independent. Workers
// observe ctx between items and stop pulling new indices once it is
// done. Items already started always run to completion (a work item is
// the cancellation grain), and ForCtx blocks until every started item has
// returned — workers fully drain, no goroutine outlives the call.
//
// The return value is ctx.Err() when cancellation stopped the loop
// before every index ran, nil otherwise; an uncancelled ForCtx runs every
// index exactly once.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Resolve(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	done := ctx.Done()
	var next atomic.Int64
	next.Store(-1)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					stopped.Store(true)
					return
				default:
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() || int(next.Load()) < n-1 {
		// Some indices never ran (or a worker saw cancellation). Report
		// the context error; partial results are the caller's to discard.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ForErrCtx is ForCtx with error collection. When ctx is done before
// every index ran, the context error wins: the caller's results are
// incomplete regardless of which items succeeded, and reporting a
// per-item error from a partial run would depend on timing. For an
// uncancelled run every index runs (there is no early exit on error, so
// the set of attempted indices never depends on timing) and the error of
// the lowest failing index is returned — the same error a serial loop
// that kept going would report first.
func ForErrCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n)
	if cerr := ForCtx(ctx, n, workers, func(i int) { errs[i] = fn(i) }); cerr != nil {
		return cerr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapCtx runs fn(i) for every i in [0, n) on up to `workers` goroutines
// and returns the results in index order. On failure it returns the error
// ForErrCtx selects: the context error when ctx stopped the loop, else
// the error of the lowest failing index.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForErrCtx(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
