package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/jiger"
	"roadpart/internal/roadnet"
)

// oneShotGolden pins FNV-64a hashes of (K, K′ or moves, assignments) for
// the single-k spectral callers: the Ji–Geroliminis baseline at k=3 and
// k=6, and a fresh cut.Spectral at k=6 on the similarity-weighted road
// graph for every method under the default, greedy-pruning and
// accept-k′ options (the ablations' shapes), on the small-scale D1 and
// M1 datasets. They were captured from the separate one-shot
// partitioner that a fresh Spectral replaced — a fresh Spectral runs the
// same k+headroom cold solve and the identity projection, so the outputs
// are bit-identical.
var oneShotGolden = map[string]uint64{
	"D1/jiger/k=3":      0xf0f739b3b138f7c2,
	"D1/jiger/k=6":      0xbd28e9e7309a7ce9,
	"D1/alpha/default":  0xc281e53b3bba7d07,
	"D1/alpha/greedy":   0xbb669f7330136e03,
	"D1/ncut/default":   0xb565fba332d8ac86,
	"D1/ncut/greedy":    0xb565fba332d8ac86,
	"D1/scalar/default": 0xfc61eaa4ad50aec0,
	"D1/scalar/greedy":  0xfc61eaa4ad50aec0,
	"M1/jiger/k=3":      0x37c9281385fa5af6,
	"M1/jiger/k=6":      0xf6c2e2cc9690c215,
	"M1/alpha/default":  0x18c1c40f5b98b280,
	"M1/alpha/greedy":   0x9bb244dd00a4ca81,
	"M1/ncut/default":   0x8c8dd34a3fc2e678,
	"M1/ncut/greedy":    0x3bb58b40024096a3,
	"M1/scalar/default": 0x48dc46ba2f6ff05d,
	"M1/scalar/greedy":  0xbc303ba622ee91a2,
}

func assignHash(header string, assign []int) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, header)
	for _, a := range assign {
		fmt.Fprintf(h, "%d,", a)
	}
	return h.Sum64()
}

// TestOneShotGoldens checks every single-k spectral caller against
// oneShotGolden.
func TestOneShotGoldens(t *testing.T) {
	methods := []struct {
		name string
		m    cut.Method
	}{{"alpha", cut.MethodAlphaCut}, {"ncut", cut.MethodNCut}, {"scalar", cut.MethodScalarAlpha}}
	variants := []struct {
		name string
		opts cut.Options
	}{
		{"default", cut.Options{Seed: 1}},
		{"greedy", cut.Options{Seed: 1, Reduction: cut.ReduceGreedyPruning}},
	}
	check := func(key string, got uint64) {
		t.Helper()
		if want := oneShotGolden[key]; got != want {
			t.Errorf("%s: hash %#x, want %#x", key, got, want)
		}
	}
	for _, name := range []string{"D1", "M1"} {
		ds, err := BuildDataset(name, ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		g, err := roadnet.DualGraph(ds.Net)
		if err != nil {
			t.Fatal(err)
		}
		f := ds.Net.Densities()
		for _, k := range []int{3, 6} {
			res, err := jiger.Partition(g, f, k, jiger.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/jiger/k=%d", name, k), assignHash(fmt.Sprintf("K=%d moves=%d ", res.K, res.Moves), res.Assign))
		}
		wg := core.SimilarityWeighted(g, f)
		for _, m := range methods {
			for _, v := range variants {
				res, err := cut.NewSpectral(wg, m.m, v.opts).PartitionCtx(context.Background(), 6)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/%s/%s", name, m.name, v.name), assignHash(fmt.Sprintf("K=%d KPrime=%d ", res.K, res.KPrime), res.Assign))
			}
		}
	}
}
