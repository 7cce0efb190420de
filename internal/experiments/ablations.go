package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/eigen"
	"roadpart/internal/gen"
	"roadpart/internal/kmeans"
	"roadpart/internal/metrics"
	"roadpart/internal/roadnet"
	"roadpart/internal/supergraph"
	"roadpart/internal/traffic"
)

// AblationRow is one configuration's outcome in an ablation study.
type AblationRow struct {
	Config  string
	ANS     float64
	GDBI    float64
	Extra   string
	Elapsed time.Duration
}

// AblationData is one ablation study's rows.
type AblationData struct {
	Title string
	Rows  []AblationRow
}

// Render prints the study.
func (d *AblationData) Render(w io.Writer) {
	fmt.Fprintln(w, d.Title)
	fmt.Fprintf(w, "%-34s %8s %8s %12s  %s\n", "Config", "ANS", "GDBI", "Elapsed", "Notes")
	for _, r := range d.Rows {
		fmt.Fprintf(w, "%-34s %8.4f %8.4f %12s  %s\n", r.Config, r.ANS, r.GDBI, r.Elapsed.Round(time.Millisecond), r.Extra)
	}
	fmt.Fprintln(w)
}

// AblationStability sweeps the supernode stability threshold ε_η from 0
// (plain ASG) toward 1 (approaching AG), reporting supergraph size and
// quality — the continuum discussed around Figure 6.
func AblationStability(opts Options, k int) (*AblationData, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = 6
	}
	data := &AblationData{Title: fmt.Sprintf("Ablation: stability threshold ε_η (D1, ASG, k=%d)", k)}
	for _, eps := range []float64{0, 0.90, 0.95, 0.99, 0.999, 1} {
		t0 := time.Now()
		p, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.ASG, StabilityEps: eps, Seed: 1})
		if err != nil {
			return nil, err
		}
		kk := k
		if len(p.SG.Nodes) < kk {
			kk = len(p.SG.Nodes)
		}
		res, err := p.PartitionKCtx(context.Background(), kk)
		if err != nil {
			return nil, err
		}
		data.Rows = append(data.Rows, AblationRow{
			Config:  fmt.Sprintf("eps_eta=%g", eps),
			ANS:     res.Report.ANS,
			GDBI:    res.Report.GDBI,
			Extra:   fmt.Sprintf("supernodes=%d splits=%d", len(p.SG.Nodes), p.SG.Stats.Splits),
			Elapsed: time.Since(t0),
		})
	}
	return data, nil
}

// AblationWeighting compares the literal Equation 3 superlink weight
// (which algebraically reduces to the supernode-feature Gaussian) against
// the per-link endpoint-feature variant realizing the paper's stated
// intent.
func AblationWeighting(opts Options, k int) (*AblationData, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = 6
	}
	data := &AblationData{Title: fmt.Sprintf("Ablation: superlink weighting (D1, ASG, k=%d)", k)}
	for _, cfg := range []struct {
		name string
		mode supergraph.WeightMode
	}{
		{"Eq3 (supernode features)", supergraph.WeightEq3},
		{"per-link (endpoint features)", supergraph.WeightPerLink},
	} {
		t0 := time.Now()
		p, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.ASG, Weighting: cfg.mode, Seed: 1})
		if err != nil {
			return nil, err
		}
		kk := k
		if len(p.SG.Nodes) < kk {
			kk = len(p.SG.Nodes)
		}
		res, err := p.PartitionKCtx(context.Background(), kk)
		if err != nil {
			return nil, err
		}
		data.Rows = append(data.Rows, AblationRow{
			Config: cfg.name, ANS: res.Report.ANS, GDBI: res.Report.GDBI,
			Extra:   fmt.Sprintf("K=%d", res.K),
			Elapsed: time.Since(t0),
		})
	}
	return data, nil
}

// AblationRefine measures the effect of the optional α-Cut boundary
// refinement (cut.RefineAlphaCut) on both direct and supergraph schemes.
func AblationRefine(opts Options, k int) (*AblationData, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = 6
	}
	data := &AblationData{Title: fmt.Sprintf("Ablation: boundary refinement (D1, k=%d)", k)}
	for _, cfg := range []struct {
		name   string
		scheme core.Scheme
		refine bool
	}{
		{"AG", core.AG, false},
		{"AG + refine", core.AG, true},
		{"ASG", core.ASG, false},
		{"ASG + refine", core.ASG, true},
	} {
		t0 := time.Now()
		p, err := core.NewPipeline(ds.Net, core.Config{Scheme: cfg.scheme, Refine: cfg.refine, Seed: 1})
		if err != nil {
			return nil, err
		}
		kk := k
		if p.SG != nil && len(p.SG.Nodes) < kk {
			kk = len(p.SG.Nodes)
		}
		res, err := p.PartitionKCtx(context.Background(), kk)
		if err != nil {
			return nil, err
		}
		data.Rows = append(data.Rows, AblationRow{
			Config: cfg.name, ANS: res.Report.ANS, GDBI: res.Report.GDBI,
			Extra:   fmt.Sprintf("K=%d intra=%.4f", res.K, res.Report.Intra),
			Elapsed: time.Since(t0),
		})
	}
	return data, nil
}

// AblationEigen locates the dense-versus-Lanczos crossover for the α-Cut
// eigenproblem: at each operator size it times both solvers for the k
// smallest eigenpairs and reports their agreement — the measurement
// behind the partitioner running Lanczos at every size.
func AblationEigen(k int, sizes ...int) (*AblationData, error) {
	if k == 0 {
		k = 6
	}
	if len(sizes) == 0 {
		// Sizes are intersection targets; operator order ≈ 1.8× that.
		// The largest default keeps the dense solver under ~half a
		// minute; pass explicit sizes to push the crossover further.
		sizes = []int{200, 500, 900}
	}
	data := &AblationData{Title: fmt.Sprintf("Ablation: dense vs Lanczos eigensolver (α-Cut matrix, k=%d)", k)}
	for _, n := range sizes {
		net, err := gen.City(gen.CityConfig{TargetIntersections: n, TargetSegments: n * 9 / 5, Seed: uint64(n)})
		if err != nil {
			return nil, err
		}
		snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 1})
		if err != nil {
			return nil, err
		}
		if err := traffic.ApplySnapshot(net, snap); err != nil {
			return nil, err
		}
		g, err := roadnet.DualGraph(net)
		if err != nil {
			return nil, err
		}
		adj, err := core.SimilarityWeighted(g, net.Densities()).AdjacencyCSR()
		if err != nil {
			return nil, err
		}
		op, err := cut.NewAlphaCutOp(adj)
		if err != nil {
			return nil, err
		}

		t0 := time.Now()
		denseDec, err := eigen.SymEigen(op.Dense())
		if err != nil {
			return nil, err
		}
		denseTime := time.Since(t0)

		t0 = time.Now()
		lancDec, err := eigen.Lanczos(context.Background(), op, k, eigen.LanczosOptions{Seed: 1})
		if err != nil {
			return nil, err
		}
		lancTime := time.Since(t0)

		var maxGap float64
		for j := 0; j < k; j++ {
			gap := lancDec.Values[j] - denseDec.Values[j]
			if gap < 0 {
				gap = -gap
			}
			if gap > maxGap {
				maxGap = gap
			}
		}
		data.Rows = append(data.Rows, AblationRow{
			Config:  fmt.Sprintf("n=%d dense", op.Dim()),
			Elapsed: denseTime,
			Extra:   fmt.Sprintf("lanczos=%v speedup=%.1fx max|Δλ|=%.2e", lancTime.Round(time.Millisecond), float64(denseTime)/float64(lancTime), maxGap),
		})
	}
	return data, nil
}

// AblationKMeansInit compares the paper's deterministic sorted-interval
// 1-D k-means initialization against classic random (Forgy) starts on the
// D1 densities: the WCSS of the sorted init versus the spread of WCSS
// across random seeds. The sorted init should match or beat the random
// median while being run-to-run stable, which is why Section 4.1 adopts
// it.
func AblationKMeansInit(opts Options, kappa int) (*AblationData, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	if kappa == 0 {
		kappa = 5
	}
	f := ds.Net.Densities()
	data := &AblationData{Title: fmt.Sprintf("Ablation: 1-D k-means initialization (D1 densities, κ=%d)", kappa)}

	t0 := time.Now()
	sorted, err := kmeans.OneD(f, kappa, 0)
	if err != nil {
		return nil, err
	}
	data.Rows = append(data.Rows, AblationRow{
		Config:  "sorted-interval (paper)",
		Extra:   fmt.Sprintf("WCSS=%.6f iters=%d deterministic", sorted.WCSS, sorted.Iterations),
		Elapsed: time.Since(t0),
	})

	var wcss []float64
	t0 = time.Now()
	const runs = 11
	for seed := uint64(1); seed <= runs; seed++ {
		r, err := kmeans.OneDRandomInit(f, kappa, 0, seed)
		if err != nil {
			return nil, err
		}
		wcss = append(wcss, r.WCSS)
	}
	med := median(wcss)
	lo, hi := wcss[0], wcss[0]
	for _, v := range wcss {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	data.Rows = append(data.Rows, AblationRow{
		Config:  fmt.Sprintf("random (Forgy), %d seeds", runs),
		Extra:   fmt.Sprintf("WCSS median=%.6f min=%.6f max=%.6f", med, lo, hi),
		Elapsed: time.Since(t0),
	})
	return data, nil
}

// AblationReduction compares the paper's global recursive bipartitioning
// against greedy pruning for reducing k′ partitions to k, and the dynamic
// vector α against fixed scalar balances.
func AblationReduction(opts Options, k int) (*AblationData, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = 6
	}
	g, err := roadnet.DualGraph(ds.Net)
	if err != nil {
		return nil, err
	}
	f := ds.Net.Densities()
	wg := core.SimilarityWeighted(g, f)

	data := &AblationData{Title: fmt.Sprintf("Ablation: reduction strategy and α (D1 road graph, k=%d)", k)}
	type variant struct {
		name   string
		method cut.Method
		opts   cut.Options
	}
	variants := []variant{
		{"dynamic α + recursive bipart.", cut.MethodAlphaCut, cut.Options{Seed: 1}},
		{"dynamic α + greedy pruning", cut.MethodAlphaCut, cut.Options{Seed: 1, Reduction: cut.ReduceGreedyPruning}},
		{"scalar α=0.3", cut.MethodScalarAlpha, cut.Options{Seed: 1, Alpha: 0.3}},
		{"scalar α=0.5", cut.MethodScalarAlpha, cut.Options{Seed: 1, Alpha: 0.5}},
		{"scalar α=0.7", cut.MethodScalarAlpha, cut.Options{Seed: 1, Alpha: 0.7}},
	}
	for _, v := range variants {
		t0 := time.Now()
		res, err := cut.NewSpectral(wg, v.method, v.opts).PartitionCtx(context.Background(), k)
		if err != nil {
			return nil, err
		}
		assign, _, err := cut.RepairConnectivity(g, f, res.Assign, k)
		if err != nil {
			return nil, err
		}
		rep, err := metrics.Evaluate(f, assign, g)
		if err != nil {
			return nil, err
		}
		data.Rows = append(data.Rows, AblationRow{
			Config: v.name, ANS: rep.ANS, GDBI: rep.GDBI,
			Extra:   fmt.Sprintf("kprime=%d", res.KPrime),
			Elapsed: time.Since(t0),
		})
	}
	return data, nil
}
