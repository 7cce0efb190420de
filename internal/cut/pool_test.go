package cut

import (
	"sync"
	"testing"
)

// TestConcurrentPartitionPoolIsolation drives fresh partitioners concurrently on
// differently sized graphs so the shared scratch pools (eigen
// workspaces, k-means restart scratches, embedding buffers, component
// label buffers) are constantly recycled across mismatched shapes.
// Every result must match its serial reference bit for bit: a pooled
// buffer leaking state — or two calls sharing a workspace — would show
// up here, and -race turns any actual sharing into a hard failure.
func TestConcurrentPartitionPoolIsolation(t *testing.T) {
	shapes := []struct {
		w, h, k int
	}{
		{8, 8, 4}, {10, 6, 3}, {12, 12, 5}, {5, 5, 2},
	}
	refs := make([]*Result, len(shapes))
	for i, s := range shapes {
		res, err := partition(grid(s.w, s.h), s.k, MethodAlphaCut, Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}

	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(shapes))
	for r := 0; r < rounds; r++ {
		for i, s := range shapes {
			wg.Add(1)
			go func(i int, w, h, k int) {
				defer wg.Done()
				res, err := partition(grid(w, h), k, MethodAlphaCut, Options{Seed: 17})
				if err != nil {
					errs <- err
					return
				}
				want := refs[i]
				if res.K != want.K || res.KPrime != want.KPrime {
					t.Errorf("shape %d: K/KPrime drifted under concurrency", i)
					return
				}
				for v := range want.Assign {
					if res.Assign[v] != want.Assign[v] {
						t.Errorf("shape %d: Assign[%d] drifted under concurrency", i, v)
						return
					}
				}
			}(i, s.w, s.h, s.k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
