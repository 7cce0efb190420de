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

// TestFlightCancelPromotesWaiter drives the solve token's failure path
// deterministically: a waiter queues on a token held by a solve that
// then stores nothing (as a cancelled solve does), and the waiter takes
// the token, solves under its own live context and fills the memo.
func TestFlightCancelPromotesWaiter(t *testing.T) {
	g := barbell(8, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 5})

	// Hold the token, as if another call were mid-eigensolve.
	s.solve <- struct{}{}
	waits := specWaits.Value()

	var wg sync.WaitGroup
	wg.Add(1)
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterErr = s.WarmCtx(context.Background(), 4)
	}()

	// Let the waiter queue on the token, then release it with nothing
	// stored, as the cancelled holder would.
	deadline := time.Now().Add(2 * time.Second)
	for specWaits.Value() == waits {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued on the held token")
		}
		time.Sleep(time.Millisecond)
	}
	<-s.solve

	wg.Wait()
	if waiterErr != nil {
		t.Fatalf("waiter with live ctx got %v after the holder stored nothing", waiterErr)
	}
	if dec := s.Decomposition(); dec == nil || len(dec.Values) < 4 {
		t.Fatal("waiter did not solve and fill the memo")
	}
}

// TestWaiterStopsWaitingOnOwnCancel asserts a waiter abandons a stuck
// solve the moment its own context expires — it neither blocks on the
// token nor takes or releases it.
func TestWaiterStopsWaitingOnOwnCancel(t *testing.T) {
	g := barbell(8, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 5})
	s.solve <- struct{}{} // never released: a stuck solve

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
	// The token is still held for its (hypothetical) holder.
	if len(s.solve) != 1 {
		t.Fatal("waiter cancellation released the held token")
	}
	if s.Decomposition() != nil {
		t.Fatal("waiter stored a decomposition without the token")
	}
}

// TestMemoHitIgnoresHeldToken asserts a k the memo can serve never
// waits on a solve: with the token held for good, a warm Spectral still
// answers every k up to its width.
func TestMemoHitIgnoresHeldToken(t *testing.T) {
	g := barbell(8, 1, 0.05)
	s := NewSpectral(g, MethodAlphaCut, Options{Seed: 5})
	if err := s.WarmCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	s.solve <- struct{}{} // a stuck solve
	defer func() { <-s.solve }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waits := specWaits.Value()
	for _, k := range []int{2, 3, 4} {
		if _, err := s.PartitionCtx(ctx, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if got := specWaits.Value() - waits; got != 0 {
		t.Fatalf("memo hits counted %d waits", got)
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
