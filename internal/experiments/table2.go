package experiments

import (
	"context"
	"fmt"
	"io"

	"roadpart/internal/core"
	"roadpart/internal/jiger"
	"roadpart/internal/metrics"
	"roadpart/internal/parallel"
	"roadpart/internal/roadnet"
)

// Table2Row is one scheme's best (lowest) ANS and the k achieving it.
type Table2Row struct {
	Scheme string
	ANS    float64
	K      int
}

// Table2Data is the overall-quality comparison of Table 2.
type Table2Data struct {
	Rows []Table2Row
}

// Table2 reproduces Table 2: the optimal (minimum over k) ANS for the
// schemes AG, ASG, NG, NSG and the Ji & Geroliminis baseline on D1.
//
// Paper shape: AG (0.3392 @ k=6) and ASG (0.3526 @ k=6) are far better
// than NG (0.9362 @ k=8), with Ji & Geroliminis in between (0.6210 @ k=3).
func Table2(opts Options) (*Table2Data, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	kMin, kMax := opts.kRange(2, 20)
	runs := opts.runs(11)

	schemes := []core.Scheme{core.AG, core.ASG, core.NG, core.NSG}
	rows, err := parallel.MapCtx(context.Background(), len(schemes), opts.Workers, func(i int) (Table2Row, error) {
		c, err := schemeCurve(ds.Net, schemes[i], kMin, kMax, runs, opts.Workers)
		if err != nil {
			return Table2Row{}, err
		}
		k, ans := c.BestANS()
		return Table2Row{Scheme: c.Scheme, ANS: ans, K: k}, nil
	})
	if err != nil {
		return nil, err
	}
	row, err := jigerBest(ds.Net, kMin, kMax, runs)
	if err != nil {
		return nil, err
	}
	return &Table2Data{Rows: append(rows, row)}, nil
}

// jigerBest sweeps k for the Ji & Geroliminis baseline and returns its
// best median ANS.
func jigerBest(net *roadnet.Network, kMin, kMax, runs int) (Table2Row, error) {
	g, err := roadnet.DualGraph(net)
	if err != nil {
		return Table2Row{}, err
	}
	f := net.Densities()
	bestK, bestANS := 0, 0.0
	for k := kMin; k <= kMax; k++ {
		var vals []float64
		for seed := 1; seed <= runs; seed++ {
			res, err := jiger.Partition(g, f, k, jiger.Options{Seed: uint64(seed)})
			if err != nil {
				return Table2Row{}, fmt.Errorf("jiger k=%d: %w", k, err)
			}
			ans, err := metrics.ANS(f, res.Assign, g)
			if err != nil {
				return Table2Row{}, err
			}
			vals = append(vals, ans)
		}
		m := median(vals)
		if bestK == 0 || m < bestANS {
			bestK, bestANS = k, m
		}
	}
	return Table2Row{Scheme: "Ji&Geroliminis", ANS: bestANS, K: bestK}, nil
}

// Render prints the table in the paper's layout.
func (d *Table2Data) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Overall quality of partitioning (best ANS; lower is better)")
	fmt.Fprintf(w, "%-16s %8s %4s\n", "Scheme", "ANS", "k")
	for _, r := range d.Rows {
		fmt.Fprintf(w, "%-16s %8.4f %4d\n", r.Scheme, r.ANS, r.K)
	}
}
