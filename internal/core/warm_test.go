package core_test

import (
	"context"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/experiments"
)

// TestSweepKColdWidenMatchesWarmGoldens pins the warm-start invariance
// contract at the pipeline level (docs/NUMERICS.md § Warm starts): a
// sweep whose spectral cache widens cold (ColdWiden) produces partitions
// bit-identical to the default warm-started widening, for both datasets,
// both schemes and serial/parallel workers. The expected hashes are the
// preContextGolden table — the warm path's table of record — so warm and
// cold are pinned to each other through a single source of truth.
func TestSweepKColdWidenMatchesWarmGoldens(t *testing.T) {
	schemes := map[string]core.Scheme{"AG": core.AG, "ASG": core.ASG}
	for _, name := range []string{"D1", "M1"} {
		ds, err := experiments.BuildDataset(name, experiments.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for schemeName, scheme := range schemes {
			want := preContextGolden[name+"/"+schemeName]
			for _, workers := range []int{1, 4} {
				cfg := core.Config{Scheme: scheme, Seed: 7, Workers: workers, ColdWiden: true}
				p, err := core.NewPipeline(ds.Net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sweep, err := p.SweepKCtx(context.Background(), 2, 6)
				if err != nil {
					t.Fatal(err)
				}
				if got := sweepHash(sweep); got != want {
					t.Errorf("%s/%s workers=%d: ColdWiden sweep hash %#x, want warm-path golden %#x",
						name, schemeName, workers, got, want)
				}
			}
		}
	}
}
