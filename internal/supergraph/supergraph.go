// Package supergraph implements road supergraph mining — the first
// (bottom-up) level of the paper's two-level partitioning (Section 4).
//
// Mining proceeds in the three stages of Algorithm 1: a sampled κ-sweep of
// 1-D k-means scored by the Moderated Clustering Gain shortlists candidate
// cluster counts; each shortlisted configuration is re-clustered on the
// full data and the one producing the fewest connected components (nodes
// grouped together and adjacent) wins, its components becoming supernodes;
// weighted superlinks then connect supernodes that share road-graph edges.
// The optional stability check of Algorithm 2 recursively splits loosely
// bonded supernodes.
package supergraph

import (
	"context"
	"fmt"
	"math"

	"roadpart/internal/cluster"
	"roadpart/internal/graph"
	"roadpart/internal/kmeans"
	"roadpart/internal/linalg"
	"roadpart/internal/obs"
)

// Stage timers for the module-2 mining stages (Algorithm 1–2); cached so
// recording is one atomic update per stage.
var (
	stageShortlist  = obs.StageTimer("mcg_shortlist")
	stageFullKMeans = obs.StageTimer("full_kmeans")
	stageStability  = obs.StageTimer("stability_split")
	stageMerge      = obs.StageTimer("supergraph_merge")
)

// Supernode is a set of road-graph nodes with similar densities that is
// connected in the road graph (Definition 6). Feature is the supernode's
// density value ς.f.
type Supernode struct {
	Members []int
	Feature float64
}

// Supergraph is the mined condensed graph (Definition 8): supernodes,
// weighted superlinks (as a graph.Graph over supernode indices), and the
// mapping from road-graph nodes to supernodes.
type Supergraph struct {
	Nodes []Supernode
	// Links is the superlink topology; edge weights are the ω of
	// Equation 3.
	Links *graph.Graph
	// NodeOf maps each road-graph node to its supernode index.
	NodeOf []int
	// Stats records how mining went, for reporting and Figure 5.
	Stats MineStats
}

// MineStats describes one mining run.
type MineStats struct {
	// Sweep holds the κ-sweep on the sample (MCG per κ, Figure 5's series).
	Sweep *cluster.Sweep
	// Shortlist is the set of κ that cleared the MCG threshold.
	Shortlist []int
	// ChosenKappa is the shortlisted κ with the fewest connected
	// components.
	ChosenKappa int
	// SupernodesBeforeStability counts components before Algorithm 2 ran.
	SupernodesBeforeStability int
	// Splits counts supernode splits performed by the stability check.
	Splits int
}

// WeightMode selects the superlink weighting.
type WeightMode int

const (
	// WeightEq3 evaluates Equation 3 literally. Because the summand
	// exp(−(ς_p.f−ς_q.f)²/2σ²) is constant across the links of one
	// supernode pair, the RMS over |L_pq| copies equals the single
	// Gaussian term, so the weight reduces to the feature similarity of
	// the two supernodes. This is the default, matching the paper.
	WeightEq3 WeightMode = iota
	// WeightPerLink replaces the supernode features inside the sum with
	// the features of each link's endpoint nodes, which realizes the
	// paper's *stated* intent that both the number of links and their
	// similarity matter. Kept as an ablation.
	WeightPerLink
)

// MineOptions configures mining. The zero value gives sensible defaults.
type MineOptions struct {
	// EpsTheta is the absolute MCG shortlisting threshold ε_θ. When 0,
	// the relative threshold EpsThetaFrac is used instead.
	EpsTheta float64
	// EpsThetaFrac shortlists κ whose MCG is at least this fraction of the
	// sweep maximum. 0 selects 0.8, mirroring the paper's hand-chosen
	// absolute thresholds, which sit just under the flat top of the MCG
	// curve (ε_θ = 2000 on M1 ≈ 0.86 of that curve's maximum). A higher
	// fraction risks shortlisting only the far tail when the sampled
	// curve has a late bump, which inflates the supernode count.
	EpsThetaFrac float64
	// KappaMax bounds the sweep; 0 selects 25.
	KappaMax int
	// SampleSize caps the sweep sample; 0 selects 2000.
	SampleSize int
	// StabilityEps is ε_η of Algorithm 2 in [0,1]; 0 disables the
	// stability check (the paper's ASG configuration).
	StabilityEps float64
	// Weighting selects the superlink weight formula.
	Weighting WeightMode
	// Seed drives sampling.
	Seed uint64
}

// MineCtx builds the road supergraph of road graph g whose node features
// (densities) are given by features. It implements Algorithm 1 end to
// end, with the optional Algorithm 2 stability pass. ctx is observed
// between the work items of every mining stage — each κ of the sampled
// shortlist sweep, each shortlisted κ's full-data clustering, and each
// supernode pop of the stability-split loop — so cancellation latency is
// bounded by one clustering run.
func MineCtx(ctx context.Context, g *graph.Graph, features []float64, opts MineOptions) (*Supergraph, error) {
	n := g.N()
	if len(features) != n {
		return nil, fmt.Errorf("supergraph: %d features for %d nodes", len(features), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("supergraph: empty road graph")
	}
	if opts.StabilityEps < 0 || opts.StabilityEps > 1 {
		return nil, fmt.Errorf("supergraph: stability threshold %v outside [0,1]", opts.StabilityEps)
	}
	if n == 1 {
		// The κ-sweep needs two points; a one-node road graph is one
		// supernode with no superlinks.
		return &Supergraph{
			Nodes:  []Supernode{{Members: []int{0}, Feature: features[0]}},
			Links:  graph.NewBuilder(1).Build(),
			NodeOf: []int{0},
			Stats:  MineStats{ChosenKappa: 1, SupernodesBeforeStability: 1},
		}, nil
	}

	// Stage 1: sampled κ-sweep, shortlist by MCG (Alg. 1 lines 3–9).
	spShortlist := stageShortlist.Start()
	sw, err := cluster.SweepKappaCtx(ctx, features, cluster.SweepOptions{
		KappaMax:   opts.KappaMax,
		SampleSize: opts.SampleSize,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	eps := opts.EpsTheta
	if eps == 0 {
		frac := opts.EpsThetaFrac
		if frac == 0 {
			frac = 0.8
		}
		maxMCG := math.Inf(-1)
		for _, p := range sw.Points {
			if p.Stats.MCG > maxMCG {
				maxMCG = p.Stats.MCG
			}
		}
		eps = frac * maxMCG
	}
	shortlist := sw.Shortlist(eps)
	spShortlist.End()

	// Stage 2: full-data clustering per shortlisted κ; fewest connected
	// components wins (Alg. 1 lines 10–16).
	// The features are sorted once for every candidate κ, and each κ
	// clusters and labels into reused scratch; only the best
	// configuration so far is copied out, so the loop's steady-state
	// allocations are bounded by the number of improvements, not by the
	// shortlist length.
	spKMeans := stageFullKMeans.Start()
	bestComp := n + 1 // above any count, so the first κ is labelled in full
	var bestAssign, bestLabels []int
	var bestMeans []float64
	chosen := 0
	var ks kmeans.Scratch
	ks.Prepare(features)
	labels := linalg.GetInts(n)
	defer linalg.PutInts(labels)
	for _, kappa := range shortlist {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("supergraph: full clustering interrupted at κ=%d: %w", kappa, err)
		}
		res, err := ks.Cluster(kappa, 0)
		if err != nil {
			return nil, fmt.Errorf("supergraph: κ=%d: %w", kappa, err)
		}
		// A κ wins only with fewer pieces than the best so far, so the
		// walk stops at that count; a winner's labels are complete.
		count := g.GroupComponentsInto(res.Assign, labels, bestComp)
		if count < bestComp {
			bestComp = count
			bestLabels = append(bestLabels[:0], labels...)
			bestAssign = append(bestAssign[:0], res.Assign...)
			bestMeans = bestMeans[:0]
			for c := 0; c < kappa; c++ {
				bestMeans = append(bestMeans, res.Mean1(c))
			}
			chosen = kappa
		}
	}
	spKMeans.End()

	// Create supernodes (Alg. 1 lines 17–20): members from components,
	// feature = the k-means cluster mean of the component's cluster.
	spMerge := stageMerge.Start()
	nodes := make([]Supernode, bestComp)
	for v := 0; v < n; v++ {
		s := bestLabels[v]
		nodes[s].Members = append(nodes[s].Members, v)
	}
	for s := range nodes {
		rep := nodes[s].Members[0]
		nodes[s].Feature = bestMeans[bestAssign[rep]]
	}

	stats := MineStats{
		Sweep:                     sw,
		Shortlist:                 shortlist,
		ChosenKappa:               chosen,
		SupernodesBeforeStability: bestComp,
	}
	spMerge.End()

	// Optional stability pass (Algorithm 2).
	if opts.StabilityEps > 0 {
		spStab := stageStability.Start()
		var err error
		nodes, stats.Splits, err = stabilize(ctx, g, features, nodes, opts.StabilityEps)
		spStab.End()
		if err != nil {
			return nil, err
		}
	}

	// Superlink construction accrues to the merge stage: it completes the
	// supergraph assembly of Alg. 1 (a Timer accumulates across spans).
	spLinks := stageMerge.Start()
	sg := &Supergraph{Nodes: nodes, NodeOf: make([]int, n), Stats: stats}
	for s, sn := range sg.Nodes {
		for _, v := range sn.Members {
			sg.NodeOf[v] = s
		}
	}
	if err := sg.buildLinks(g, features, opts.Weighting); err != nil {
		return nil, err
	}
	spLinks.End()
	return sg, nil
}

// Stability returns the stability measure η(ς) of Equation 2 for a
// supernode with the given member features: the average over members of
// exp(−|(f+1)/(μ+1) − 1|), 1 when every member sits at the mean.
func Stability(memberFeatures []float64) float64 {
	if len(memberFeatures) == 0 {
		return 1
	}
	var mu float64
	for _, f := range memberFeatures {
		mu += f
	}
	mu /= float64(len(memberFeatures))
	var s float64
	for _, f := range memberFeatures {
		s += math.Exp(-math.Abs((f+1)/(mu+1) - 1))
	}
	return s / float64(len(memberFeatures))
}

// stabilize runs Algorithm 2: every supernode below the threshold is split
// at its member-feature mean into a ≤mean and a >mean part, each part then
// re-split into connected components (the paper's split can disconnect a
// supernode, which would violate condition C.2 downstream; component
// extraction restores the invariant at no asymptotic cost), and the parts
// are pushed back for re-checking, LIFO, until everything is stable.
// ctx is observed once per popped supernode; on cancellation the partial
// split state is discarded and the context error returned.
func stabilize(ctx context.Context, g *graph.Graph, features []float64, nodes []Supernode, epsEta float64) ([]Supernode, int, error) {
	stack := make([]Supernode, len(nodes))
	copy(stack, nodes)
	var out []Supernode
	splits := 0
	// Pop-loop scratch: the feature and half buffers are reused across
	// pops, and the subset walk returns its marks cleared, so every
	// component split runs without clearing (or reallocating) O(n) state.
	var fsBuf []float64
	var preBuf, postBuf []int
	mark := make([]bool, g.N())
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("supergraph: stability split interrupted: %w", err)
		}
		sn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if cap(fsBuf) < len(sn.Members) {
			fsBuf = make([]float64, len(sn.Members))
		}
		fs := fsBuf[:len(sn.Members)]
		var mu float64
		for i, v := range sn.Members {
			fs[i] = features[v]
			mu += features[v]
		}
		mu /= float64(len(sn.Members))

		if Stability(fs) >= epsEta || len(sn.Members) == 1 {
			sn.Feature = mu // stabilized supernodes adopt their member mean
			out = append(out, sn)
			continue
		}

		pre, post := preBuf[:0], postBuf[:0]
		for i, v := range sn.Members {
			if fs[i] <= mu {
				pre = append(pre, v)
			} else {
				post = append(post, v)
			}
		}
		preBuf, postBuf = pre, post
		if len(pre) == 0 || len(post) == 0 {
			// All members at the mean yet unstable cannot happen (η would
			// be 1), but guard against float edge cases.
			sn.Feature = mu
			out = append(out, sn)
			continue
		}
		splits++
		for _, part := range [][]int{pre, post} {
			for _, comp := range g.SubsetComponents(part, mark) {
				stack = append(stack, Supernode{Members: comp})
			}
		}
	}
	return out, splits, nil
}

// buildLinks establishes weighted superlinks (Alg. 1 lines 21–25,
// Equation 3).
func (sg *Supergraph) buildLinks(g *graph.Graph, features []float64, mode WeightMode) error {
	ns := len(sg.Nodes)

	// Global variance of supernode features about their mean (σ²(ς)).
	fs := make([]float64, ns)
	var mu float64
	for i, sn := range sg.Nodes {
		fs[i] = sn.Feature
		mu += sn.Feature
	}
	mu /= float64(ns)
	var sigma2 float64
	for _, f := range fs {
		d := f - mu
		sigma2 += d * d
	}
	sigma2 /= float64(ns)

	// Equation 3 (the default) is the RMS of |L_pq| identical Gaussian
	// terms, which is the similarity of the two supernode features;
	// WeightPerLink takes each link's term from its endpoint nodes.
	if mode == WeightPerLink {
		links, err := g.Quotient(sg.NodeOf, ns, func(u, v int, _ float64) float64 {
			return gaussianSim(features[u], features[v], sigma2)
		})
		sg.Links = links
		return err
	}
	links, err := g.Quotient(sg.NodeOf, ns, func(int, int, float64) float64 { return 1 })
	if err != nil {
		return err
	}
	sg.Links = links.Reweighted(func(p, q int, _ float64) float64 {
		return gaussianSim(sg.Nodes[p].Feature, sg.Nodes[q].Feature, sigma2)
	})
	return nil
}

// gaussianSim is exp(−(a−b)²/(2σ²)), with the degenerate σ²=0 case mapped
// to 1 for equal features and 0 otherwise.
func gaussianSim(a, b, sigma2 float64) float64 {
	if sigma2 == 0 {
		if a == b {
			return 1
		}
		return 0
	}
	d := a - b
	return math.Exp(-d * d / (2 * sigma2))
}

// ExpandAssign maps a partition assignment over supernodes to one over the
// original road-graph nodes.
func (sg *Supergraph) ExpandAssign(superAssign []int) ([]int, error) {
	if len(superAssign) != len(sg.Nodes) {
		return nil, fmt.Errorf("supergraph: assignment length %d != %d supernodes", len(superAssign), len(sg.Nodes))
	}
	out := make([]int, len(sg.NodeOf))
	for v, s := range sg.NodeOf {
		out[v] = superAssign[s]
	}
	return out, nil
}

// Features returns the supernode feature vector.
func (sg *Supergraph) Features() []float64 {
	fs := make([]float64, len(sg.Nodes))
	for i, sn := range sg.Nodes {
		fs[i] = sn.Feature
	}
	return fs
}

// StabilityProfile returns η(ς) for every supernode (Figure 6's series),
// computed from the road-graph features.
func (sg *Supergraph) StabilityProfile(features []float64) []float64 {
	out := make([]float64, len(sg.Nodes))
	for i, sn := range sg.Nodes {
		fs := make([]float64, len(sn.Members))
		for j, v := range sn.Members {
			fs[j] = features[v]
		}
		out[i] = Stability(fs)
	}
	return out
}
