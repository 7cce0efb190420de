package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0, 0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0,0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3, 10); got != 1 {
		t.Fatalf("Resolve(-3,10) = %d, want 1", got)
	}
	if got := Resolve(8, 3); got != 3 {
		t.Fatalf("Resolve(8,3) = %d, want 3 (capped at n)", got)
	}
	if got := Resolve(8, 0); got != 8 {
		t.Fatalf("Resolve(8,0) = %d, want 8 (n=0 means no cap)", got)
	}
	if got := Resolve(2, 100); got != 2 {
		t.Fatalf("Resolve(2,100) = %d, want 2", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 237
		var hits [n]atomic.Int32
		ForCtx(context.Background(), n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	ForCtx(context.Background(), 0, 4, func(i int) { ran = true })
	ForCtx(context.Background(), -5, 4, func(i int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 7} {
		err := ForErrCtx(context.Background(), 50, workers, func(i int) error {
			if i == 3 || i == 40 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("workers=%d: err = %v, want fail at 3", workers, err)
		}
	}
	if err := ForErrCtx(context.Background(), 10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		out, err := MapCtx(context.Background(), 100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	want := errors.New("boom")
	_, err := MapCtx(context.Background(), 5, 3, func(i int) (int, error) {
		if i == 2 {
			return 0, want
		}
		return i, nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		out, err := MapCtx(context.Background(), 64, workers, func(i int) (int, error) { return i*31 + 7, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
