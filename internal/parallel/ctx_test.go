package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCtxPreCancelled pins the fast path: a context that is already
// done runs zero items, for every worker count.
func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForCtx(ctx, 100, workers, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: %d items ran under a pre-cancelled ctx", workers, n)
		}
	}
}

// TestForCtxStopsWithinOneItem cancels from inside item 10 and asserts
// the grain guarantee: each worker finishes at most the one item it had
// in hand when cancellation landed, so at most `workers` further items
// run after the cancel.
func TestForCtxStopsWithinOneItem(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var before, after atomic.Int64
		err := ForCtx(ctx, 10_000, workers, func(i int) {
			if before.Add(1) == 10 {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				after.Add(1)
			default:
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if n := after.Load(); n > int64(workers) {
			t.Fatalf("workers=%d: %d items started after cancellation (grain is one item per worker)", workers, n)
		}
	}
}

// TestForCtxUncancelledMatchesFor asserts an uncancelled ForCtx runs
// every index exactly once, as a plain for loop would, and returns nil.
func TestForCtxUncancelledMatchesFor(t *testing.T) {
	for _, workers := range []int{1, 3} {
		seen := make([]atomic.Int32, 50)
		if err := ForCtx(context.Background(), 50, workers, func(i int) { seen[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForErrCtxContextErrorWins pins the error-selection rule: on a
// cancelled run the context error is reported even when items also
// failed, because which items got to fail is timing-dependent.
func TestForErrCtxContextErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := fmt.Errorf("item failure")
	err := ForErrCtx(ctx, 100, 4, func(i int) error {
		if i == 0 {
			cancel()
		}
		return boom
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error to win over item errors", err)
	}
}

// TestForErrCtxUncancelledReportsLowestIndex pins the lowest-failing-
// index rule when no cancellation happens.
func TestForErrCtxUncancelledReportsLowestIndex(t *testing.T) {
	err := ForErrCtx(context.Background(), 20, 4, func(i int) error {
		if i == 7 || i == 13 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail-7" {
		t.Fatalf("err = %v, want fail-7 (lowest failing index)", err)
	}
}

// TestMapCtxUncancelledMatchesMap asserts an uncancelled parallel MapCtx
// returns exactly what a serial map over the indices computes.
func TestMapCtxUncancelledMatchesMap(t *testing.T) {
	fn := func(i int) (int, error) { return i * i, nil }
	got, err := MapCtx(context.Background(), 30, 3, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want, _ := fn(i); v != want {
			t.Fatalf("index %d: MapCtx=%d, serial map=%d", i, v, want)
		}
	}
}

// TestForCtxDrainsGoroutines asserts a cancelled parallel ForCtx leaves
// no workers behind: the goroutine count returns to its baseline.
func TestForCtxDrainsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = ForCtx(ctx, 1000, 8, func(i int) {
			if i == 3 {
				cancel()
			}
		})
		cancel()
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines polls until the goroutine count drops back to at
// most base+2 (the runtime may keep a couple of its own), failing after
// two seconds.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
