package roadpart

import (
	"context"
	"io"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/gen"
	"roadpart/internal/graph"
	"roadpart/internal/hierarchy"
	"roadpart/internal/jiger"
	"roadpart/internal/mapmatch"
	"roadpart/internal/metrics"
	"roadpart/internal/render"
	"roadpart/internal/roadnet"
	"roadpart/internal/supergraph"
	"roadpart/internal/temporal"
	"roadpart/internal/traffic"
)

// Road network model (Definitions 1–2 of the paper).
type (
	// Network is a directed urban road network: intersections joined by
	// directed road segments carrying traffic densities.
	Network = roadnet.Network
	// Intersection is a node of the physical network.
	Intersection = roadnet.Intersection
	// Segment is a directed road segment with length and density.
	Segment = roadnet.Segment
	// Graph is the undirected (dual) road graph the framework operates on.
	Graph = graph.Graph
)

// Framework configuration and results.
type (
	// Config parameterizes the partitioning framework.
	Config = core.Config
	// Result is one partitioning outcome: assignment, quality metrics and
	// the per-module timing breakdown.
	Result = core.Result
	// Pipeline caches the k-independent stages so sweeps over k are cheap.
	Pipeline = core.Pipeline
	// Scheme selects the cut and whether the supergraph level runs.
	Scheme = core.Scheme
	// Timing is the per-module wall-clock breakdown.
	Timing = core.Timing
	// Supergraph is the mined condensed graph of supernodes.
	Supergraph = supergraph.Supergraph
	// Report bundles the inter, intra, GDBI and ANS quality measures.
	Report = metrics.Report
)

// Partitioning schemes (Section 6.3).
const (
	// AG applies α-Cut directly on the road graph.
	AG = core.AG
	// NG applies normalized cut directly on the road graph.
	NG = core.NG
	// ASG applies α-Cut on the mined road supergraph (the scalable
	// configuration; recommended default).
	ASG = core.ASG
	// NSG applies normalized cut on the mined road supergraph.
	NSG = core.NSG
)

// Synthetic data generation.
type (
	// CityConfig describes a lattice city for GenerateCity.
	CityConfig = gen.CityConfig
	// RadialConfig describes a ring-and-spoke city for GenerateRadialCity.
	RadialConfig = gen.RadialConfig
	// TrafficConfig tunes the biased-random-walk microsimulation.
	TrafficConfig = traffic.SimConfig
	// ODTrafficConfig tunes the origin–destination trip simulation.
	ODTrafficConfig = traffic.ODConfig
	// FieldConfig tunes the closed-form congestion field synthesizer.
	FieldConfig = traffic.FieldConfig
	// Snapshot is a per-segment density vector at one timestamp.
	Snapshot = traffic.Snapshot
)

// Hierarchical partitioning.
type (
	// HierarchyConfig tunes multi-level region-tree construction.
	HierarchyConfig = hierarchy.Config
	// Region is one node of a hierarchical partition tree.
	Region = hierarchy.Node
)

// BuildHierarchy recursively partitions the network into a region tree:
// city → districts → corridors, each level re-partitioned on its own
// densities. Cut the tree at any depth with (*Region).FlattenLevel.
func BuildHierarchy(net *Network, cfg HierarchyConfig) (*Region, error) {
	return hierarchy.Build(net, cfg)
}

// Temporal re-partitioning (Section 6.4).
type (
	// TemporalConfig tunes repeated re-partitioning over time.
	TemporalConfig = temporal.Config
	// TemporalMode selects global or distributed re-partitioning.
	TemporalMode = temporal.Mode
	// Frame is the partitioning state at one timestamp.
	Frame = temporal.Frame
	// Tracker owns the long-lived state of an incremental
	// re-partitioning stream: feed it full density vectors (Step) or
	// sparse deltas (ApplyDelta) and it recomputes only what the
	// observed drift requires, bit-identical to partitioning from
	// scratch.
	Tracker = temporal.Tracker
	// DensityUpdate is one sparse density change (segment, new density).
	DensityUpdate = roadnet.DensityUpdate
	// DensityDelta is an ordered list of sparse density changes.
	DensityDelta = roadnet.DensityDelta
)

// Temporal modes.
const (
	// ModeGlobal re-partitions the full network at every timestamp.
	ModeGlobal = temporal.ModeGlobal
	// ModeDistributed re-partitions each region independently.
	ModeDistributed = temporal.ModeDistributed
)

// PartitionCtx runs the full framework — road graph construction,
// optional supergraph mining, spectral partitioning — and returns cfg.K
// spatially connected regions with quality metrics and timing. Every
// stage — supergraph mining, the eigensolve, k-means, partition
// refinement — observes ctx between bounded work items and returns an
// error wrapping ctx.Err() once it is done.
func PartitionCtx(ctx context.Context, net *Network, cfg Config) (*Result, error) {
	return core.PartitionCtx(ctx, net, cfg)
}

// NewPipelineCtx runs the k-independent stages (graph construction and
// supergraph mining) once, observing ctx, so several k values (or
// BestKByANSCtx) can be evaluated cheaply. The returned Pipeline's
// PartitionKCtx, SweepKCtx and BestKByANSCtx methods accept per-call
// contexts.
func NewPipelineCtx(ctx context.Context, net *Network, cfg Config) (*Pipeline, error) {
	return core.NewPipelineCtx(ctx, net, cfg)
}

// DualGraph builds the road graph (Definition 2): one node per segment,
// one undirected link per segment adjacency.
func DualGraph(net *Network) (*Graph, error) {
	return roadnet.DualGraph(net)
}

// Evaluate computes the paper's four quality measures for an assignment
// of the graph's nodes (with features f) into partitions.
func Evaluate(f []float64, assign []int, g *Graph) (Report, error) {
	return metrics.Evaluate(f, assign, g)
}

// ValidatePartition verifies conditions C.1–C.2: dense labels and
// connected partitions.
func ValidatePartition(g *Graph, assign []int) error {
	return metrics.ValidatePartition(g, assign)
}

// PartitionSimilarity returns the Adjusted Rand Index between two
// assignments of the same segment set (1 = identical regions).
func PartitionSimilarity(a, b []int) (float64, error) {
	return metrics.ARI(a, b)
}

// BaselineJiGeroliminis runs the Ji & Geroliminis comparison method on a
// road graph with segment densities f: normalized-cut over-partitioning,
// small-partition merging and boundary adjustment.
func BaselineJiGeroliminis(g *Graph, f []float64, k int, seed uint64) ([]int, error) {
	res, err := jiger.Partition(g, f, k, jiger.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Assign, nil
}

// RefinePartition applies greedy α-Cut boundary refinement to an existing
// assignment over the similarity-weighted road graph, returning the
// refined assignment and its partition count.
func RefinePartition(g *Graph, f []float64, assign []int) ([]int, int, error) {
	simG := core.SimilarityWeighted(g, f)
	out, k, _, err := cut.RefineAlphaCut(simG, f, assign, cut.RefineOptions{})
	return out, k, err
}

// GenerateCity builds a synthetic lattice city network (no traffic).
func GenerateCity(cfg CityConfig) (*Network, error) { return gen.City(cfg) }

// GenerateRadialCity builds a synthetic ring-and-spoke city network.
func GenerateRadialCity(cfg RadialConfig) (*Network, error) { return gen.Radial(cfg) }

// SimulateTraffic runs the biased-random-walk microsimulation and returns
// density snapshots over time.
func SimulateTraffic(net *Network, cfg TrafficConfig) ([]Snapshot, error) {
	return traffic.Simulate(net, cfg)
}

// SimulateODTraffic runs the origin–destination trip simulation
// (Dijkstra-routed commuters).
func SimulateODTraffic(net *Network, cfg ODTrafficConfig) ([]Snapshot, error) {
	return traffic.SimulateOD(net, cfg)
}

// Trajectory is one vehicle's sampled positions over time.
type Trajectory = traffic.Trajectory

// SimulateTrajectories runs the microsimulation but returns raw vehicle
// trajectories (optionally with gpsNoise metres of position error) — the
// form MNTG delivered its data in.
func SimulateTrajectories(net *Network, cfg TrafficConfig, gpsNoise float64) ([]Trajectory, error) {
	return traffic.SimulateTrajectories(net, cfg, gpsNoise)
}

// MatchDensities reconstructs per-segment density snapshots (timestamps
// 0..maxT) from vehicle trajectories by map matching every sample onto
// its nearest heading-compatible segment within maxDist metres — the
// paper's trajectory→density step.
func MatchDensities(net *Network, trajs []Trajectory, maxT int, maxDist float64) ([]Snapshot, error) {
	ix, err := mapmatch.NewIndex(net, 0)
	if err != nil {
		return nil, err
	}
	return mapmatch.Densities(net, ix, trajs, maxT, maxDist)
}

// SynthesizeField produces a closed-form hotspot density snapshot, the
// fast substitute for a full simulation on very large networks.
func SynthesizeField(net *Network, cfg FieldConfig) (Snapshot, error) {
	return traffic.SyntheticField(net, cfg)
}

// ApplyDensities writes a snapshot's densities into the network.
func ApplyDensities(net *Network, s Snapshot) error { return traffic.ApplySnapshot(net, s) }

// AverageDensities returns the element-wise mean of the last window
// snapshots (all when window <= 0), recovering spatial structure from
// shot-noisy instantaneous counts.
func AverageDensities(snaps []Snapshot, window int) (Snapshot, error) {
	return traffic.TimeAverage(snaps, window)
}

// RepartitionCtx re-partitions the network at the selected snapshot
// indices, globally or distributively (Section 6.4), returning one frame
// per index. The first frame's ARIvsPrev is NaN (it has no predecessor);
// average frame stability with MeanARI, which skips it. The run stops
// between pipeline stages and between region re-splits when ctx ends,
// returning the context's error.
func RepartitionCtx(ctx context.Context, net *Network, snaps []Snapshot, at []int, mode TemporalMode, cfg TemporalConfig) ([]Frame, error) {
	return temporal.RunCtx(ctx, net, snaps, at, mode, cfg)
}

// NewTracker prepares an incremental re-partitioning stream over net
// (see Tracker). Densities arrive per step, so net's current densities
// are not consulted until the first Step or ApplyDelta.
func NewTracker(net *Network, mode TemporalMode, cfg TemporalConfig) (*Tracker, error) {
	return temporal.NewTracker(net, mode, cfg)
}

// MeanARI averages ARIvsPrev over frames, skipping undefined entries
// (the first frame). It returns NaN when no frame has a defined ARI.
func MeanARI(frames []Frame) float64 { return temporal.MeanARI(frames) }

// LoadNetwork reads a network from a JSON file.
func LoadNetwork(path string) (*Network, error) { return roadnet.LoadJSON(path) }

// SaveNetwork writes a network to a JSON file.
func SaveNetwork(net *Network, path string) error { return net.SaveJSON(path) }

// ReadGeoJSON parses a GeoJSON FeatureCollection of LineStrings into a
// network, merging endpoints closer than tol metres.
func ReadGeoJSON(r io.Reader, tol float64) (*Network, error) {
	return roadnet.ReadGeoJSON(r, tol)
}

// WriteGeoJSON serializes the network (and optionally a partition
// assignment, which may be nil) as GeoJSON.
func WriteGeoJSON(w io.Writer, net *Network, assign []int) error {
	return net.WriteGeoJSON(w, assign)
}

// RenderPartitionsSVG draws the network with segments colored by
// partition.
func RenderPartitionsSVG(w io.Writer, net *Network, assign []int, title string) error {
	return render.Partitions(w, net, assign, render.Options{Title: title})
}

// RenderDensitiesSVG draws the network with segments colored by
// congestion.
func RenderDensitiesSVG(w io.Writer, net *Network, title string) error {
	return render.Densities(w, net, render.Options{Title: title})
}
