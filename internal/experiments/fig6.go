package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"roadpart/internal/roadnet"
	"roadpart/internal/supergraph"
)

// Fig6Series is the stability profile of one dataset's supernodes.
type Fig6Series struct {
	Dataset string
	// Stability holds η(ς) for every supernode, ascending.
	Stability []float64
}

// Fraction returns the share of supernodes with stability at least eta.
func (s *Fig6Series) Fraction(eta float64) float64 {
	if len(s.Stability) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.Stability, eta)
	return float64(len(s.Stability)-i) / float64(len(s.Stability))
}

// Fig6Data holds the Figure 6 panels.
type Fig6Data struct {
	Series []Fig6Series
}

// Fig6 reproduces Figure 6: the stability measure η(ς) of the mined
// supernodes, for D1 (panel a) and M2 (panel b).
//
// Paper shape: most supernodes are highly stable (η near 1), with a small
// unstable tail — which is why the plain supergraph (no stability pass)
// already partitions well.
func Fig6(opts Options, datasets ...string) (*Fig6Data, error) {
	if len(datasets) == 0 {
		datasets = []string{"D1", "M2"}
	}
	var out Fig6Data
	for _, name := range datasets {
		ds, err := BuildDataset(name, opts.Scale)
		if err != nil {
			return nil, err
		}
		g, err := roadnet.DualGraph(ds.Net)
		if err != nil {
			return nil, err
		}
		f := ds.Net.Densities()
		sg, err := supergraph.MineCtx(context.Background(), g, f, supergraph.MineOptions{})
		if err != nil {
			return nil, err
		}
		etas := sg.StabilityProfile(f)
		sort.Float64s(etas)
		out.Series = append(out.Series, Fig6Series{Dataset: ds.Name, Stability: etas})
	}
	return &out, nil
}

// Render prints a compact distribution summary per dataset.
func (d *Fig6Data) Render(w io.Writer) {
	for _, s := range d.Series {
		fmt.Fprintf(w, "Figure 6 (%s): stability of %d supernodes\n", s.Dataset, len(s.Stability))
		if len(s.Stability) == 0 {
			continue
		}
		q := func(p float64) float64 {
			i := int(p * float64(len(s.Stability)-1))
			return s.Stability[i]
		}
		fmt.Fprintf(w, "  min=%.4f p25=%.4f median=%.4f p75=%.4f max=%.4f\n",
			s.Stability[0], q(0.25), q(0.50), q(0.75), s.Stability[len(s.Stability)-1])
		for _, eta := range []float64{0.90, 0.95, 0.99} {
			fmt.Fprintf(w, "  share with η ≥ %.2f: %.1f%%\n", eta, 100*s.Fraction(eta))
		}
		fmt.Fprintln(w)
	}
}
