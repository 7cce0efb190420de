// Package core assembles the paper's complete spatial partitioning
// framework (Figure 2): road graph construction (module 1), road
// supergraph mining (module 2) and supergraph partitioning by α-Cut or
// normalized cut (module 3), with the per-module timing breakdown the
// paper reports in Table 3.
//
// The four evaluation schemes of Section 6.3 are exposed directly:
//
//	AG  — α-Cut directly on the road graph
//	NG  — normalized cut directly on the road graph (the baseline)
//	ASG — α-Cut on the supergraph
//	NSG — normalized cut on the supergraph
//
// A Pipeline separates the k-independent stages (modules 1–2) from the
// k-dependent partitioning so that sweeps over k — how the paper selects
// the optimal partition count via the ANS minimum — do not repeat the
// mining work.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"roadpart/internal/coarsen"
	"roadpart/internal/cut"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/obs"
	"roadpart/internal/parallel"
	"roadpart/internal/roadnet"
	"roadpart/internal/supergraph"
)

// Stage timers for the pipeline hot path (see docs/TUNING.md
// § Observability). Cached here so recording is one atomic update.
var (
	stageRoadGraph = obs.StageTimer("road_graph_build")
	stageSpectral  = obs.StageTimer("spectral_cut")
	stageRefine    = obs.StageTimer("alpha_cut_refine")
	stageSweep     = obs.StageTimer("k_sweep")
)

// Scheme selects the partitioning configuration of Section 6.3.
type Scheme int

const (
	// AG applies α-Cut directly on the road graph.
	AG Scheme = iota
	// NG applies normalized cut directly on the road graph.
	NG
	// ASG applies α-Cut on the mined road supergraph.
	ASG
	// NSG applies normalized cut on the mined road supergraph.
	NSG
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case AG:
		return "AG"
	case NG:
		return "NG"
	case ASG:
		return "ASG"
	case NSG:
		return "NSG"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme parses the scheme spelling used by roadpart and the server
// API: "AG", "NG", "ASG" or "NSG" (the String form; see also
// ParseMultilevelMode). Callers that default an empty name do so before
// calling it.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "AG":
		return AG, nil
	case "NG":
		return NG, nil
	case "ASG":
		return ASG, nil
	case "NSG":
		return NSG, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want AG, NG, ASG or NSG)", s)
	}
}

// usesSupergraph reports whether the scheme runs module 2.
func (s Scheme) usesSupergraph() bool { return s == ASG || s == NSG }

// method maps the scheme to its spectral cut.
func (s Scheme) method() cut.Method {
	if s == AG || s == ASG {
		return cut.MethodAlphaCut
	}
	return cut.MethodNCut
}

// Config parameterizes the framework.
type Config struct {
	// K is the desired number of partitions.
	K int
	// Scheme selects the cut and whether the supergraph level runs.
	Scheme Scheme
	// StabilityEps is the supernode stability threshold ε_η in [0,1];
	// 0 skips Algorithm 2 (the paper's plain ASG/NSG).
	StabilityEps float64
	// EpsTheta is the absolute MCG shortlisting threshold ε_θ; 0 uses
	// EpsThetaFrac of the sweep maximum instead.
	EpsTheta float64
	// EpsThetaFrac is the relative MCG threshold; 0 selects 0.8.
	EpsThetaFrac float64
	// KappaMax bounds the κ-sweep; 0 selects 25.
	KappaMax int
	// SampleSize caps the κ-sweep sample; 0 selects 2000.
	SampleSize int
	// Restarts is the k-means best-of-n on the spectral embedding;
	// 0 selects 5.
	Restarts int
	// DenseCutoff selects no solver (the partitioner is always
	// matrix-free Lanczos); it is kept because the result fingerprint
	// hashes it. 0 selects 900.
	DenseCutoff int
	// Weighting selects the superlink weight formula (Eq. 3 by default).
	Weighting supergraph.WeightMode
	// Refine applies α-Cut boundary refinement (cut.RefineAlphaCut) to
	// the final road-segment partition — an optional post-processing
	// extension analogous to Ji & Geroliminis's adjustment step.
	Refine bool
	// Seed drives all randomized stages.
	Seed uint64
	// Workers bounds the goroutines used by the parallel stages (the
	// k-sweep fan-out, and beneath each partition the Lanczos solve's
	// team and the k-means restarts): 0 selects GOMAXPROCS, 1 forces
	// serial execution. Results are bit-identical for every worker count
	// at the same Seed.
	Workers int
	// ColdWiden has no effect: every spectral solve starts cold from
	// Seed (docs/NUMERICS.md § Headroom). It is kept for callers that
	// still set it and is not part of the result fingerprint.
	ColdWiden bool
	// Multilevel selects the coarsen → solve → project path for module 3
	// (docs/SCALING.md). The zero value, MultilevelAuto, engages it only
	// when the module-3 graph reaches MultilevelThreshold nodes, so small
	// networks stay on the flat path bit for bit.
	Multilevel MultilevelMode
	// MultilevelThreshold is the module-3 node count at or above which
	// MultilevelAuto engages; 0 selects DefaultMultilevelThreshold. It is
	// never read when Multilevel is Off or On.
	MultilevelThreshold int
}

// Normalized returns the config with every zero-value "use a default"
// field replaced by the default the pipeline actually applies downstream
// (the κ-sweep bounds inside cluster.SweepKappaCtx, the MCG threshold
// inside supergraph.MineCtx, the spectral options inside cut). Two configs
// with equal Normalized forms drive identical pipelines on the same
// inputs, which is exactly what content-addressed result caching keys
// on (internal/resultcache). The spectral defaults come from
// cut.Options.Normalized itself; the mining values are pinned here and
// cross-checked against their packages by
// TestNormalizedMatchesDownstreamDefaults.
//
// Fields that do not influence the output are canonicalized away:
// Workers is forced to 0 (worker count never changes results — the
// determinism guarantee), and for schemes that skip module 2 the mining
// parameters are zeroed because they are never read.
func (c Config) Normalized() Config {
	if c.Scheme.usesSupergraph() {
		if c.EpsTheta != 0 {
			c.EpsThetaFrac = 0 // ignored when the absolute threshold is set
		} else if c.EpsThetaFrac == 0 {
			c.EpsThetaFrac = 0.8
		}
		if c.KappaMax == 0 {
			c.KappaMax = 25
		}
		if c.SampleSize == 0 {
			c.SampleSize = 2000
		}
	} else {
		c.EpsTheta = 0
		c.EpsThetaFrac = 0
		c.KappaMax = 0
		c.SampleSize = 0
		c.StabilityEps = 0
		c.Weighting = 0
	}
	co := cut.Options{Restarts: c.Restarts, DenseCutoff: c.DenseCutoff}.Normalized()
	c.Restarts, c.DenseCutoff = co.Restarts, co.DenseCutoff
	if c.Multilevel == MultilevelAuto {
		if c.MultilevelThreshold == 0 {
			c.MultilevelThreshold = DefaultMultilevelThreshold
		}
	} else {
		c.MultilevelThreshold = 0 // never read when the mode is forced
	}
	c.Workers = 0
	return c
}

// Timing is the per-module wall-clock breakdown of Table 3.
type Timing struct {
	Module1 time.Duration // road graph construction
	Module2 time.Duration // supergraph mining (zero for AG/NG)
	Module3 time.Duration // spectral partitioning
	Total   time.Duration
}

// Result is one partitioning outcome.
type Result struct {
	// Assign is the partition id per road segment, dense in [0, K).
	Assign []int
	// K is the achieved partition count.
	K int
	// KPrime is the disjoint partition count before the k′→k reduction.
	KPrime int
	// Timing is the module breakdown.
	Timing Timing
	// Report carries the four evaluation measures for this result.
	Report metrics.Report
}

// Pipeline holds the k-independent state: the road graph (module 1) and,
// for supergraph schemes, the mined supergraph (module 2).
type Pipeline struct {
	cfg Config
	// G is the dual road graph (unit adjacency weights).
	G *graph.Graph
	// F is the per-segment density vector.
	F []float64
	// SG is the mined supergraph, nil for direct schemes.
	SG *supergraph.Supergraph
	// simG is the congestion-affinity road graph used by the direct
	// schemes: Definition 3 requires cut affinities to measure congestion
	// similarity, so adjacency edges carry the Gaussian similarity of
	// their endpoint densities (the same kernel Equation 3 applies to
	// supernode features).
	simG *graph.Graph
	// spec caches the spectral decomposition of the module-3 graph so a
	// sweep over k (the ANS-minimum selection) pays for the eigenproblem
	// once.
	spec *cut.Spectral
	// hier is the contraction hierarchy when the multilevel path engaged
	// (Config.Multilevel, docs/SCALING.md), nil on the flat path. spec
	// then factors hier's coarsest graph and projects labels back down.
	hier *coarsen.Hierarchy

	m1, m2 time.Duration
}

// SimilarityWeighted reweights every edge of g with the Gaussian density
// similarity exp(−(f_u−f_v)²/(2σ²)) of its endpoints. The bandwidth σ² is
// the mean squared density difference across edges — the local scale —
// rather than the global feature variance: adjacent segments differ far
// less than arbitrary segment pairs, and a global bandwidth would map
// every edge weight to ≈1, making the cut blind to congestion. A graph
// whose adjacent features never differ yields unit weights.
func SimilarityWeighted(g *graph.Graph, f []float64) *graph.Graph {
	var sigma2 float64
	var m int
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				d := f[u] - f[e.To]
				sigma2 += d * d
				m++
			}
		}
	}
	if m > 0 {
		sigma2 /= float64(m)
	}
	if sigma2 == 0 {
		return g.Reweighted(func(u, v int, w float64) float64 { return 1 })
	}
	return g.Reweighted(func(u, v int, w float64) float64 {
		d := f[u] - f[v]
		return math.Exp(-d * d / (2 * sigma2))
	})
}

// NewPipeline runs modules 1 and 2 for the network under cfg.
func NewPipeline(net *roadnet.Network, cfg Config) (*Pipeline, error) {
	return NewPipelineCtx(context.Background(), net, cfg)
}

// NewPipelineCtx is NewPipeline with cooperative cancellation of the
// mining stages (module 2 observes ctx between clustering runs and
// stability splits). An uncancelled call builds a pipeline bit-identical
// to NewPipeline's.
func NewPipelineCtx(ctx context.Context, net *roadnet.Network, cfg Config) (*Pipeline, error) {
	sp := stageRoadGraph.Start()
	t0 := time.Now()
	g, err := roadnet.DualGraph(net)
	if err != nil {
		return nil, err
	}
	f := net.Densities()
	m1 := time.Since(t0)
	sp.End()
	return newPipelineFromGraph(ctx, g, f, cfg, m1)
}

// NewPipelineFromGraphCtx builds a pipeline directly from a road graph
// and its feature vector, for callers that construct graphs themselves
// (region subgraphs, pre-built dual graphs), with cooperative
// cancellation of the mining stages.
func NewPipelineFromGraphCtx(ctx context.Context, g *graph.Graph, f []float64, cfg Config) (*Pipeline, error) {
	return newPipelineFromGraph(ctx, g, f, cfg, 0)
}

func newPipelineFromGraph(ctx context.Context, g *graph.Graph, f []float64, cfg Config, m1 time.Duration) (*Pipeline, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("core: empty road graph")
	}
	if len(f) != g.N() {
		return nil, fmt.Errorf("core: %d features for %d nodes", len(f), g.N())
	}
	p := &Pipeline{cfg: cfg, G: g, F: f, m1: m1}
	if !cfg.Scheme.usesSupergraph() {
		p.simG = SimilarityWeighted(g, f)
	}
	if cfg.Scheme.usesSupergraph() {
		t0 := time.Now()
		sg, err := supergraph.MineCtx(ctx, g, f, supergraph.MineOptions{
			EpsTheta:     cfg.EpsTheta,
			EpsThetaFrac: cfg.EpsThetaFrac,
			KappaMax:     cfg.KappaMax,
			SampleSize:   cfg.SampleSize,
			StabilityEps: cfg.StabilityEps,
			Weighting:    cfg.Weighting,
			Seed:         cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		p.SG = sg
		p.m2 = time.Since(t0)
	}
	opts := cut.Options{Seed: cfg.Seed, Restarts: cfg.Restarts, DenseCutoff: cfg.DenseCutoff, Workers: cfg.Workers}
	// Module-3 graph and its per-node density feature: the mined
	// supergraph for ASG/NSG, the similarity-weighted road graph
	// otherwise.
	g3, f3 := p.simG, f
	if p.SG != nil {
		g3, f3 = p.SG.Links, p.SG.Features()
	}
	norm := cfg.Normalized()
	multilevel := norm.Multilevel == MultilevelOn ||
		(norm.Multilevel == MultilevelAuto && g3.N() >= norm.MultilevelThreshold)
	if multilevel {
		hier, err := coarsen.Build(ctx, g3, f3, coarsen.Options{Seed: int64(cfg.Seed)})
		if err != nil {
			return nil, err
		}
		p.hier = hier
		p.spec = cut.NewSpectralLevel(hier, cfg.Scheme.method(), opts)
	} else {
		p.spec = cut.NewSpectral(g3, cfg.Scheme.method(), opts)
	}
	return p, nil
}

// PartitionKCtx runs module 3 for the given k and evaluates the result.
// The spectral embedding, k-means and reduction stages observe ctx
// between work items and the call returns ctx's error once it is done.
func (p *Pipeline) PartitionKCtx(ctx context.Context, k int) (*Result, error) {
	spCut := stageSpectral.Start()
	t0 := time.Now()
	if p.SG != nil && k > len(p.SG.Nodes) {
		return nil, fmt.Errorf("core: k=%d exceeds %d supernodes", k, len(p.SG.Nodes))
	}
	res, err := p.spec.PartitionCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	assign, kPrime := res.Assign, res.KPrime
	if p.SG != nil {
		if assign, err = p.SG.ExpandAssign(assign); err != nil {
			return nil, err
		}
	}
	// Final C.2 enforcement: merge the disconnected pieces of the k
	// groups until k connected partitions remain. Far from rare on large
	// flat cuts (the M tier needs 99 merges); roadpart_repair_merges
	// records each call's count.
	assign, kk, err := cut.RepairConnectivity(p.G, p.F, assign, k)
	if err != nil {
		return nil, err
	}
	spCut.End()
	if p.cfg.Refine {
		spRef := stageRefine.Start()
		// Refinement optimizes congestion affinities, so it runs on the
		// similarity-weighted road graph (built lazily for supergraph
		// schemes, which otherwise never need it).
		simG := p.simG
		if simG == nil {
			simG = SimilarityWeighted(p.G, p.F)
		}
		assign, kk, _, err = cut.RefineAlphaCut(simG, p.F, assign)
		if err != nil {
			return nil, err
		}
		spRef.End()
	}
	m3 := time.Since(t0)

	rep, err := metrics.Evaluate(p.F, assign, p.G)
	if err != nil {
		return nil, err
	}
	return &Result{
		Assign: assign,
		K:      kk,
		KPrime: kPrime,
		Timing: Timing{Module1: p.m1, Module2: p.m2, Module3: m3, Total: p.m1 + p.m2 + m3},
		Report: rep,
	}, nil
}

// Partition runs the full framework once: modules 1–3 for cfg.K.
func Partition(net *roadnet.Network, cfg Config) (*Result, error) {
	return PartitionCtx(context.Background(), net, cfg)
}

// PartitionCtx is Partition with cooperative cancellation across all
// three modules.
func PartitionCtx(ctx context.Context, net *roadnet.Network, cfg Config) (*Result, error) {
	p, err := NewPipelineCtx(ctx, net, cfg)
	if err != nil {
		return nil, err
	}
	return p.PartitionKCtx(ctx, cfg.K)
}

// SweepPoint is one k of a sweep.
type SweepPoint struct {
	K      int
	Result *Result
}

// MaxK returns the largest k the pipeline can produce: the supernode
// count for supergraph schemes, the road-graph order otherwise. When the
// multilevel path engaged, the coarsest level's order is the cap — the
// spectral core partitions that graph.
func (p *Pipeline) MaxK() int {
	max := p.G.N()
	if p.SG != nil {
		max = len(p.SG.Nodes)
	}
	if p.hier != nil {
		if n := p.hier.Graph().N(); n < max {
			max = n
		}
	}
	return max
}

// MultilevelLevels returns the depth of the contraction hierarchy the
// pipeline built, or 0 when module 3 runs on the flat path — the
// observable for "did multilevel engage" (docs/SCALING.md).
func (p *Pipeline) MultilevelLevels() int {
	if p.hier == nil {
		return 0
	}
	return p.hier.Levels()
}

// SweepKCtx partitions for every k in [kMin, kMax], reusing modules
// 1–2. kMax is clamped to MaxK(), so callers can pass an ambitious upper
// bound without knowing how condensed the mined supergraph came out.
//
// The per-k partitions run concurrently on Config.Workers goroutines
// after the shared decomposition is warmed to kMax, and the sweep output
// is identical for every worker count at the same Seed. The fan-out
// workers observe ctx between per-k partitions (one PartitionKCtx is the
// cancellation grain), started partitions drain before the call returns
// — no goroutine outlives a cancelled sweep — and ctx's error is
// returned.
func (p *Pipeline) SweepKCtx(ctx context.Context, kMin, kMax int) ([]SweepPoint, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("core: bad sweep range [%d,%d]", kMin, kMax)
	}
	if max := p.MaxK(); kMax > max {
		kMax = max
	}
	if kMax < kMin {
		return nil, fmt.Errorf("core: pipeline supports at most k=%d, below the requested minimum %d", p.MaxK(), kMin)
	}
	// Warm the decomposition to the sweep maximum before fanning out, on
	// the serial path too: the Lanczos cache width depends on the first k
	// that computes it, so warming is what keeps every worker count —
	// including Workers=1 — embedding against identical eigenpairs.
	sp := stageSweep.Start()
	defer sp.End()
	if err := p.spec.WarmCtx(ctx, kMax); err != nil {
		return nil, fmt.Errorf("core: warming decomposition to k=%d: %w", kMax, err)
	}
	return parallel.MapCtx(ctx, kMax-kMin+1, p.cfg.Workers, func(i int) (SweepPoint, error) {
		k := kMin + i
		res, err := p.PartitionKCtx(ctx, k)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("core: k=%d: %w", k, err)
		}
		return SweepPoint{K: k, Result: res}, nil
	})
}

// BestKByANS sweeps k and returns the k with the minimum ANS — the
// paper's rule for selecting the optimal number of partitions — along
// with the full sweep.
func (p *Pipeline) BestKByANS(kMin, kMax int) (int, []SweepPoint, error) {
	return p.BestKByANSCtx(context.Background(), kMin, kMax)
}

// BestKByANSCtx is BestKByANS with cooperative cancellation of the
// underlying sweep.
func (p *Pipeline) BestKByANSCtx(ctx context.Context, kMin, kMax int) (int, []SweepPoint, error) {
	sweep, err := p.SweepKCtx(ctx, kMin, kMax)
	if err != nil {
		return 0, nil, err
	}
	best := sweep[0]
	for _, pt := range sweep[1:] {
		if pt.Result.Report.ANS < best.Result.Report.ANS {
			best = pt
		}
	}
	return best.K, sweep, nil
}

// BestSplit partitions one region — a subgraph g with densities f — into
// its ANS-best split over k in [2, min(kMax, MaxK())]: the per-region
// step of the paper's distributed regime (Section 6.4) and of every level
// of a region tree. It returns nil, meaning "keep the region whole", when
// no k >= 2 exists or the best split's ANS exceeds keepANS. A one-node
// region returns nil before any mining runs.
func BestSplit(ctx context.Context, g *graph.Graph, f []float64, cfg Config, kMax int, keepANS float64) (*Result, error) {
	if g.N() < 2 {
		return nil, nil
	}
	p, err := NewPipelineFromGraphCtx(ctx, g, f, cfg)
	if err != nil {
		return nil, err
	}
	if kMax = min(kMax, p.MaxK()); kMax < 2 {
		return nil, nil
	}
	best, sweep, err := p.BestKByANSCtx(ctx, 2, kMax)
	if err != nil {
		return nil, err
	}
	res := sweep[best-2].Result
	if res.Report.ANS > keepANS {
		return nil, nil // no worthwhile split
	}
	return res, nil
}
