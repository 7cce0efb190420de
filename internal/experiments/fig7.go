package experiments

import (
	"context"
	"fmt"
	"io"

	"roadpart/internal/core"
	"roadpart/internal/parallel"
)

// Fig7Series holds the per-k quality curves for one large dataset.
type Fig7Series struct {
	Dataset string
	Curve   *Curve
	// BestK and BestANS identify the ANS minimum — the optimal partition
	// count the paper reports (4, 5 and 5 for M1, M2, M3).
	BestK   int
	BestANS float64
}

// Fig7Data holds the Figure 7 panels.
type Fig7Data struct {
	Series []Fig7Series
}

// Fig7 reproduces Figure 7: supergraph partitioning quality (inter,
// intra, GDBI, ANS) versus k on the large networks M1–M3, using the
// scalable ASG configuration the framework targets at that size.
//
// Paper shape: best ANS values are worse than the small network's but far
// better than the small-network baselines (NG, Ji&Ger); quality degrades
// slightly as the network grows; ANS fluctuates at small k and settles at
// larger k.
func Fig7(opts Options, datasets ...string) (*Fig7Data, error) {
	if len(datasets) == 0 {
		datasets = []string{"M1", "M2", "M3"}
	}
	kMin, kMax := opts.kRange(2, 25)
	runs := opts.runs(3)
	// Datasets are independent, so they run concurrently; the per-seed
	// fan-out inside each curve shares the same worker budget.
	series, err := parallel.MapCtx(context.Background(), len(datasets), opts.Workers, func(i int) (Fig7Series, error) {
		ds, err := BuildDataset(datasets[i], opts.Scale)
		if err != nil {
			return Fig7Series{}, err
		}
		c, err := schemeCurve(ds.Net, core.ASG, kMin, kMax, runs, opts.Workers)
		if err != nil {
			return Fig7Series{}, err
		}
		bestK, bestANS := c.BestANS()
		return Fig7Series{Dataset: ds.Name, Curve: c, BestK: bestK, BestANS: bestANS}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Data{Series: series}, nil
}

// Render prints one table per dataset with all four metrics.
func (d *Fig7Data) Render(w io.Writer) {
	for _, s := range d.Series {
		fmt.Fprintf(w, "Figure 7 (%s): supergraph partitioning quality vs k\n", s.Dataset)
		fmt.Fprintf(w, "%4s %10s %10s %10s %10s\n", "k", "inter", "intra", "GDBI", "ANS")
		for i, k := range s.Curve.K {
			fmt.Fprintf(w, "%4d %10.4f %10.4f %10.4f %10.4f\n",
				k, s.Curve.Inter[i], s.Curve.Intra[i], s.Curve.GDBI[i], s.Curve.ANS[i])
		}
		fmt.Fprintf(w, "best ANS %.4f at k=%d\n\n", s.BestANS, s.BestK)
	}
}
