package cut

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPartitionCtxPreCancelled asserts the cached partitioner stops at
// its first checkpoint under a done context.
func TestPartitionCtxPreCancelled(t *testing.T) {
	g := barbell(6, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PartitionCtx(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("PartitionCtx err = %v, want context.Canceled", err)
	}
	if err := s.WarmCtx(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("WarmCtx err = %v, want context.Canceled", err)
	}
}

// TestPartitionCtxUncancelledMatchesPartition pins that a live,
// cancellable context that never fires leaves the partitioner
// bit-identical to a run under context.Background.
func TestPartitionCtxUncancelledMatchesPartition(t *testing.T) {
	g := barbell(6, 1, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, k := range []int{2, 3, 4} {
		want, err := partition(g, k, MethodAlphaCut, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSpectral(g, MethodAlphaCut, Options{Seed: 1}).PartitionCtx(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != want.K || got.KPrime != want.KPrime {
			t.Fatalf("k=%d: (K=%d,K'=%d) vs (K=%d,K'=%d)", k, got.K, got.KPrime, want.K, want.KPrime)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("k=%d: assignment differs at node %d", k, i)
			}
		}
	}
}

// TestCancelledWarmDoesNotPoisonCache asserts the cache recovers after a
// cancelled call: a fresh WarmCtx and PartitionCtx succeed as if the cancelled
// attempt never happened.
func TestCancelledWarmDoesNotPoisonCache(t *testing.T) {
	g := barbell(8, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.WarmCtx(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WarmCtx err = %v", err)
	}
	if err := s.WarmCtx(context.Background(), 4); err != nil {
		t.Fatalf("WarmCtx after cancelled attempt: %v", err)
	}
	if _, err := s.PartitionCtx(context.Background(), 3); err != nil {
		t.Fatalf("PartitionCtx after cancelled attempt: %v", err)
	}
}

// TestFlightCancelPromotesWaiter drives the single-flight protocol's
// waiter-promotion path deterministically: a waiter blocks on a flight
// that lands with its owner's cancellation error, and because that error
// is never cached or propagated, the waiter promotes itself to a fresh
// flight and succeeds under its own live context.
func TestFlightCancelPromotesWaiter(t *testing.T) {
	g := barbell(8, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 5})

	// Install a fake in-progress flight, as if another goroutine were
	// mid-eigensolve.
	f := &specFlight{want: 4, done: make(chan struct{})}
	s.mu.Lock()
	s.flight = f
	s.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterErr = s.WarmCtx(context.Background(), 4)
	}()

	// Let the waiter reach its wait on f.done, then land the flight with
	// the computing goroutine's cancellation error.
	time.Sleep(20 * time.Millisecond)
	s.mu.Lock()
	s.flight = nil
	f.err = context.Canceled
	s.mu.Unlock()
	close(f.done)

	wg.Wait()
	if waiterErr != nil {
		t.Fatalf("waiter with live ctx got %v after computer cancel; promotion failed", waiterErr)
	}
	if s.dec == nil || len(s.dec.Values) < 4 {
		t.Fatal("promoted waiter did not populate the cache")
	}
}

// TestWaiterStopsWaitingOnOwnCancel asserts a waiter abandons a stuck
// flight the moment its own context expires — it neither blocks on the
// flight nor disturbs it.
func TestWaiterStopsWaitingOnOwnCancel(t *testing.T) {
	g := barbell(8, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 5})
	f := &specFlight{want: 4, done: make(chan struct{})} // never closed: a stuck flight
	s.mu.Lock()
	s.flight = f
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.WarmCtx(ctx, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("waiter took %v to honor its deadline", elapsed)
	}
	// The stuck flight is untouched for its (hypothetical) owner.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flight != f {
		t.Fatal("waiter cancellation disturbed the in-progress flight")
	}
}

// TestPartitionCtxLeavesNoGoroutines asserts a cancelled cached
// partition drains every worker it started.
func TestPartitionCtxLeavesNoGoroutines(t *testing.T) {
	g := barbell(10, 1, 0.05)
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		s := NewSpectral(g, MethodAlphaCut, Options{Seed: 2, Restarts: 8, Workers: 4})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.PartitionCtx(ctx, 3); err == nil {
			t.Fatal("cancelled PartitionCtx returned nil error")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
