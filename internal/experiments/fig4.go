package experiments

import (
	"context"
	"fmt"
	"io"

	"roadpart/internal/core"
	"roadpart/internal/parallel"
)

// Fig4Data holds the four panels of Figure 4: inter, intra, GDBI and ANS
// versus k on the small network D1 for the schemes AG, ASG and NG.
type Fig4Data struct {
	Curves []*Curve
}

// Fig4 reproduces Figure 4: road graph and supergraph partitioning
// quality on the small network across k, medians over seeded runs.
//
// Paper shape: AG and ASG outperform NG on GDBI and ANS at all k; AG
// outperforms NG on inter at all k except 2 and on intra at all k; the
// ANS minima (optimal k) fall at small k.
func Fig4(opts Options) (*Fig4Data, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	kMin, kMax := opts.kRange(2, 20)
	runs := opts.runs(11)
	schemes := []core.Scheme{core.AG, core.ASG, core.NG}
	curves, err := parallel.MapCtx(context.Background(), len(schemes), opts.Workers, func(i int) (*Curve, error) {
		return schemeCurve(ds.Net, schemes[i], kMin, kMax, runs, opts.Workers)
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Data{Curves: curves}, nil
}

// Render prints the four panels in the paper's order.
func (d *Fig4Data) Render(w io.Writer) {
	renderCurves(w, "Figure 4(a): inter-partition distance vs k (higher is better)", d.Curves, func(c *Curve) []float64 { return c.Inter })
	fmt.Fprintln(w)
	renderCurves(w, "Figure 4(b): intra-partition distance vs k (lower is better)", d.Curves, func(c *Curve) []float64 { return c.Intra })
	fmt.Fprintln(w)
	renderCurves(w, "Figure 4(c): GDBI vs k (lower is better)", d.Curves, func(c *Curve) []float64 { return c.GDBI })
	fmt.Fprintln(w)
	renderCurves(w, "Figure 4(d): ANS vs k (lower is better; minimum selects optimal k)", d.Curves, func(c *Curve) []float64 { return c.ANS })
	for _, c := range d.Curves {
		k, ans := c.BestANS()
		fmt.Fprintf(w, "%s: ANS minimum %.4f at k=%d\n", c.Scheme, ans, k)
	}
}
