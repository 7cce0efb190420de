package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"roadpart/internal/core"
	"roadpart/internal/metrics"
	"roadpart/internal/parallel"
	"roadpart/internal/roadnet"
)

// Options tunes an experiment run.
type Options struct {
	// Scale selects dataset sizes.
	Scale Scale
	// Runs is the number of seeded executions whose median each reported
	// value is (the paper uses 100; 0 selects 11 for D1-sized runs and 3
	// for the large networks).
	Runs int
	// KMin and KMax bound k sweeps; zero values select the paper's 2–20
	// for D1 and 2–25 for the large networks (clamped to what the mined
	// supergraph supports).
	KMin, KMax int
	// Workers bounds the goroutines fanning out over seeds, schemes and
	// datasets: 0 selects GOMAXPROCS, 1 forces serial. Reported medians
	// are identical for every worker count.
	Workers int
}

func (o Options) runs(def int) int {
	if o.Runs > 0 {
		return o.Runs
	}
	return def
}

func (o Options) kRange(defMin, defMax int) (int, int) {
	lo, hi := o.KMin, o.KMax
	if lo == 0 {
		lo = defMin
	}
	if hi == 0 {
		hi = defMax
	}
	return lo, hi
}

// Curve holds per-k median metric values for one scheme.
type Curve struct {
	Scheme string
	K      []int
	Inter  []float64
	Intra  []float64
	GDBI   []float64
	ANS    []float64
}

// BestANS returns the minimum ANS on the curve and its k.
func (c *Curve) BestANS() (k int, ans float64) {
	ans = c.ANS[0]
	k = c.K[0]
	for i := range c.K {
		if c.ANS[i] < ans {
			ans = c.ANS[i]
			k = c.K[i]
		}
	}
	return k, ans
}

// schemeCurve sweeps k for one scheme on one network, reporting the median
// of each metric over `runs` seeded executions — the paper's protocol of
// taking medians over repeated runs of the randomized spectral stage.
// Modules 1–2 are k- and seed-independent per seed, so each seed reuses
// one pipeline across the whole k range; seeds are independent and run
// concurrently on `workers` goroutines (the inner pipelines run serial,
// since the per-seed fan-out already saturates the workers). Each seed's
// reports depend only on (net, scheme, seed), so the medians are the same
// for every worker count.
func schemeCurve(net *roadnet.Network, scheme core.Scheme, kMin, kMax, runs, workers int) (*Curve, error) {
	type seedResult struct {
		hi      int
		reports []metrics.Report // index k-kMin
	}
	results := make([]seedResult, runs)
	err := parallel.ForErrCtx(context.Background(), runs, workers, func(i int) error {
		seed := i + 1
		out := &results[i]
		p, err := core.NewPipeline(net, core.Config{Scheme: scheme, Seed: uint64(seed), Workers: 1})
		if err != nil {
			return err
		}
		hi := kMax
		if p.SG != nil && len(p.SG.Nodes) < hi {
			hi = len(p.SG.Nodes) // the supergraph caps the reachable k
		}
		out.hi = hi
		out.reports = make([]metrics.Report, hi-kMin+1)
		for k := kMin; k <= hi; k++ {
			res, err := p.PartitionKCtx(context.Background(), k)
			if err != nil {
				return fmt.Errorf("%v k=%d seed=%d: %w", scheme, k, seed, err)
			}
			out.reports[k-kMin] = res.Report
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type cell struct{ inter, intra, gdbi, ans []float64 }
	cells := make([]cell, kMax-kMin+1)
	effectiveMax := kMax
	for _, r := range results {
		if r.hi < effectiveMax {
			effectiveMax = r.hi
		}
		for i, rep := range r.reports {
			c := &cells[i]
			c.inter = append(c.inter, rep.Inter)
			c.intra = append(c.intra, rep.Intra)
			c.gdbi = append(c.gdbi, rep.GDBI)
			c.ans = append(c.ans, rep.ANS)
		}
	}
	if effectiveMax < kMin {
		return nil, fmt.Errorf("experiments: %v supports no k in [%d,%d]", scheme, kMin, kMax)
	}
	cv := &Curve{Scheme: scheme.String()}
	for k := kMin; k <= effectiveMax; k++ {
		c := &cells[k-kMin]
		if len(c.ans) == 0 {
			continue
		}
		cv.K = append(cv.K, k)
		cv.Inter = append(cv.Inter, median(c.inter))
		cv.Intra = append(cv.Intra, median(c.intra))
		cv.GDBI = append(cv.GDBI, median(c.gdbi))
		cv.ANS = append(cv.ANS, median(c.ans))
	}
	return cv, nil
}

// median returns the middle value of xs (the mean of the middle two for
// even lengths). xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// renderCurves prints aligned per-k series for one metric across schemes.
func renderCurves(w io.Writer, title string, curves []*Curve, pick func(*Curve) []float64) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%4s", "k")
	for _, c := range curves {
		fmt.Fprintf(w, " %12s", c.Scheme)
	}
	fmt.Fprintln(w)
	// Union of k values, aligned by position per curve.
	idx := map[int]map[string]float64{}
	var ks []int
	for _, c := range curves {
		vals := pick(c)
		for i, k := range c.K {
			if idx[k] == nil {
				idx[k] = map[string]float64{}
				ks = append(ks, k)
			}
			idx[k][c.Scheme] = vals[i]
		}
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Fprintf(w, "%4d", k)
		for _, c := range curves {
			if v, ok := idx[k][c.Scheme]; ok {
				fmt.Fprintf(w, " %12.4f", v)
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
