package resultcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newCache builds an in-memory cache for tests.
func newCache(t *testing.T, maxBytes int64) *Cache {
	t.Helper()
	c, err := New(Config{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func body(s string) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) { return []byte(s), nil }
}

func TestGetOrComputeMissThenHit(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: "partition", Sum: 1}
	got, cached, err := c.GetOrCompute(context.Background(), key, 0, body("result"))
	if err != nil || cached || string(got) != "result" {
		t.Fatalf("first call = (%q, %v, %v), want fresh result", got, cached, err)
	}
	got, cached, err = c.GetOrCompute(context.Background(), key, 0, func(context.Context) ([]byte, error) {
		t.Fatal("second call recomputed")
		return nil, nil
	})
	if err != nil || !cached || string(got) != "result" {
		t.Fatalf("second call = (%q, %v, %v), want cached result", got, cached, err)
	}
}

func TestGetOrComputeDoesNotCacheErrors(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: "partition", Sum: 2}
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(context.Background(), key, 0, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call computes fresh.
	got, cached, err := c.GetOrCompute(context.Background(), key, 0, body("retry"))
	if err != nil || cached || string(got) != "retry" {
		t.Fatalf("retry = (%q, %v, %v), want fresh compute", got, cached, err)
	}
}

func TestGetOrComputeRejectsDeadContext(t *testing.T) {
	c := newCache(t, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, Key{Op: "partition", Sum: 3}, 0, body("x"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatal("dead-context lookup left an entry behind")
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the single-flight pin: N
// concurrent lookups of one key must run exactly one compute, and every
// caller must see the same body.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: "sweep", Sum: 4}
	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		<-gate // hold the flight open until every goroutine has started
		return []byte("shared"), nil
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([]string, n)
	fresh := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, cached, err := c.GetOrCompute(context.Background(), key, 0, compute)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = string(got)
			fresh[i] = !cached
		}(i)
	}
	// Wait until the owner is computing, then release it. Remaining
	// goroutines either wait on the flight or hit the landed entry.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for %d identical requests, want 1", got, n)
	}
	freshCount := 0
	for i := range results {
		if results[i] != "shared" {
			t.Fatalf("goroutine %d saw %q", i, results[i])
		}
		if fresh[i] {
			freshCount++
		}
	}
	if freshCount != 1 {
		t.Fatalf("%d goroutines report a fresh compute, want exactly the owner", freshCount)
	}
}

// TestCancelledFlightDoesNotPoison pins the non-poisoning rule: an owner
// cancelled mid-compute must not cache its context error, and a live
// waiter must promote a fresh flight and succeed.
func TestCancelledFlightDoesNotPoison(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: "partition", Sum: 5}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerStarted := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ownerCtx, key, 0, func(ctx context.Context) ([]byte, error) {
			close(ownerStarted)
			<-ctx.Done()
			return nil, fmt.Errorf("compute interrupted: %w", ctx.Err())
		})
		ownerErr <- err
	}()
	<-ownerStarted

	waiterDone := make(chan struct{})
	var waiterBody []byte
	var waiterCached bool
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterBody, waiterCached, waiterErr = c.GetOrCompute(context.Background(), key, 0,
			body("recovered"))
	}()
	// Give the waiter a moment to park on the flight, then kill the
	// owner. (If it instead arrives after the owner dies, it becomes the
	// owner directly — the same observable outcome.)
	time.Sleep(10 * time.Millisecond)
	cancelOwner()

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	<-waiterDone
	if waiterErr != nil {
		t.Fatalf("waiter err = %v — the owner's cancellation leaked", waiterErr)
	}
	if string(waiterBody) != "recovered" {
		t.Fatalf("waiter body = %q", waiterBody)
	}
	if waiterCached {
		t.Fatal("waiter reports cached — it must have promoted a fresh flight")
	}
	// And the successful promotion is what landed in the cache.
	got, ok := c.Get(key)
	if !ok || string(got) != "recovered" {
		t.Fatalf("cache holds (%q, %v), want promoted body", got, ok)
	}
}

// TestWaiterCancellationLeavesFlightAlone: a waiter abandoning its wait
// must get its own context error while the owner lands normally.
func TestWaiterCancellation(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: "partition", Sum: 6}
	gate := make(chan struct{})
	started := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		_, _, err := c.GetOrCompute(context.Background(), key, 0, func(context.Context) ([]byte, error) {
			close(started)
			<-gate
			return []byte("landed"), nil
		})
		if err != nil {
			t.Errorf("owner: %v", err)
		}
	}()
	<-started

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(waiterCtx, key, 0, body("unused"))
		waiterErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancelWaiter()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own cancellation", err)
	}
	close(gate)
	<-ownerDone
	if got, ok := c.Get(key); !ok || string(got) != "landed" {
		t.Fatalf("cache holds (%q, %v) after waiter abandoned", got, ok)
	}
}

func TestLRUEvictionByByteBudget(t *testing.T) {
	// Three ~100-byte bodies (plus overhead) in a budget that holds two.
	c := newCache(t, 2*(100+entryOverhead))
	put := func(sum uint64) { c.Put(Key{Op: "partition", Sum: sum}, make([]byte, 100)) }
	put(1)
	put(2)
	// Touch 1 so that 2 is the LRU victim.
	if _, ok := c.Get(Key{Op: "partition", Sum: 1}); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	put(3)
	if _, ok := c.Get(Key{Op: "partition", Sum: 2}); ok {
		t.Fatal("LRU entry 2 survived over-budget insert")
	}
	if _, ok := c.Get(Key{Op: "partition", Sum: 1}); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(Key{Op: "partition", Sum: 3}); !ok {
		t.Fatal("fresh entry 3 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Bytes() > 2*(100+entryOverhead) {
		t.Fatalf("Bytes = %d exceeds budget", c.Bytes())
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	c := newCache(t, 256)
	c.Put(Key{Op: "partition", Sum: 1}, []byte("small"))
	if c.Len() != 1 {
		t.Fatal("small body not cached")
	}
	c.Put(Key{Op: "partition", Sum: 2}, make([]byte, 1024))
	if c.Len() != 1 {
		t.Fatal("oversize body evicted the resident set instead of being rejected")
	}
	if _, ok := c.Get(Key{Op: "partition", Sum: 2}); ok {
		t.Fatal("oversize body was cached")
	}
}

// TestConcurrentMixedKeysRaceClean drives lookups, evictions and
// single-flight promotion concurrently; its value is running under
// -race (the suite is part of `make race`).
func TestConcurrentMixedKeysRaceClean(t *testing.T) {
	c := newCache(t, 4*(64+entryOverhead)) // tiny budget forces constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := Key{Op: "partition", Sum: uint64(i % 7)}
				_, _, err := c.GetOrCompute(context.Background(), key, 0, func(context.Context) ([]byte, error) {
					return make([]byte, 64), nil
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
