// Package temporal implements repeated congestion-based re-partitioning
// over time, including the distributed regime the paper proposes in
// Section 6.4: partition the whole network once, then re-partition each
// resulting region independently as congestion evolves — cheap enough for
// real time once regions are M1-sized or smaller.
//
// Tracker is the engine: it owns the long-lived state — dual graph, seed
// partition, per-region subgraphs and their last split, density
// fingerprints — and advances one snapshot or one sparse density delta at
// a time. A region re-splits exactly when one of its segments changed; a
// step with no change replays the previous frame. Reuse is exact, so a
// Tracker's frames do not depend on how the densities arrived. RunCtx
// replays a recorded snapshot sequence (the paper's offline protocol) as
// a loop over one Tracker.
package temporal

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// Mode selects the re-partitioning regime.
type Mode int

const (
	// ModeGlobal re-partitions the full network at every timestamp.
	ModeGlobal Mode = iota
	// ModeDistributed partitions the full network once, then
	// re-partitions each region independently on later snapshots
	// (Section 6.4's proposal for real-time use).
	ModeDistributed
)

// Config tunes the tracker.
type Config struct {
	// Scheme is the partitioning scheme for every (re-)partition.
	Scheme core.Scheme
	// K fixes the global partition count; 0 selects it by the ANS
	// minimum over [2, KMax].
	K int
	// KMax bounds automatic k selection. 0 selects 10.
	KMax int
	// SubKMax bounds the per-region split in distributed mode (each
	// region may re-split into up to SubKMax parts, or stay whole when
	// no split scores below KeepANS). 0 selects 4; a bound below 2 is
	// meaningless, so no sentinel exists.
	SubKMax int
	// KeepANS is the ANS threshold above which a region refuses to
	// re-split (its best split has too little contrast). 0 selects 0.8;
	// any negative value means "never re-split" — every region keeps its
	// seed-frame shape, which a literal 0 cannot express because 0
	// selects the default. (ANS is non-negative, so thresholds at or
	// below 0 are all equivalent.)
	KeepANS float64
	// Seed drives all randomized stages.
	Seed uint64
	// Workers bounds the goroutines of a step: the dirty regions it
	// re-splits at once, and the parallel stages of each partition
	// beneath (core.Config.Workers). 0 selects GOMAXPROCS, 1 forces
	// serial execution. Frames are bit-identical for every worker count.
	Workers int
}

func (c *Config) defaults() {
	if c.KMax == 0 {
		c.KMax = 10
	}
	if c.SubKMax == 0 {
		c.SubKMax = 4
	}
	if c.KeepANS == 0 {
		c.KeepANS = 0.8
	}
}

// Compute paths a tracker step can take, reported in Frame.Path and the
// roadpart_incremental_steps_total counter.
const (
	// PathFull recomputed every stage from scratch.
	PathFull = "full"
	// PathDelta recomputed only the regions the density delta touched.
	PathDelta = "delta"
	// PathReused replayed cached state because nothing changed.
	PathReused = "reused"
)

// Frame is the partitioning state at one timestamp.
type Frame struct {
	// Index of the snapshot this frame was computed from.
	Snapshot int
	// Assign is the partition per road segment.
	Assign []int
	// K is the partition count.
	K int
	// Report carries the quality metrics under this frame's densities.
	Report metrics.Report
	// ARIvsPrev measures agreement with the previous frame's partition.
	// The first frame has no predecessor, so the value is NaN there (and
	// omitted from the JSON encoding) — averaging a window of frames
	// must skip it rather than count a fictitious perfect agreement.
	ARIvsPrev float64
	// Path records which compute path produced this frame (PathFull,
	// PathDelta or PathReused) — diagnostic only; it never affects the
	// partition.
	Path string
	// Elapsed is the wall-clock cost of producing this frame.
	Elapsed time.Duration
}

// frameJSON is Frame's wire shape. ARIvsPrev is a pointer so the first
// frame's NaN is omitted instead of poisoning the document (encoding/json
// cannot represent NaN).
type frameJSON struct {
	Snapshot  int            `json:"snapshot"`
	Assign    []int          `json:"assign"`
	K         int            `json:"k"`
	Report    metrics.Report `json:"report"`
	ARIvsPrev *float64       `json:"ari_vs_prev,omitempty"`
	Path      string         `json:"path,omitempty"`
	ElapsedMs float64        `json:"elapsed_ms"`
}

// MarshalJSON encodes the frame with ari_vs_prev omitted when it is NaN
// (the first frame of a run).
func (f Frame) MarshalJSON() ([]byte, error) {
	doc := frameJSON{
		Snapshot:  f.Snapshot,
		Assign:    f.Assign,
		K:         f.K,
		Report:    f.Report,
		Path:      f.Path,
		ElapsedMs: float64(f.Elapsed.Microseconds()) / 1000,
	}
	if !math.IsNaN(f.ARIvsPrev) {
		ari := f.ARIvsPrev
		doc.ARIvsPrev = &ari
	}
	return json.Marshal(doc)
}

// UnmarshalJSON is MarshalJSON's inverse: an absent ari_vs_prev decodes
// back to NaN, so frames round-trip through the wire shape (the SSE
// watch client depends on this).
func (f *Frame) UnmarshalJSON(data []byte) error {
	var doc frameJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	f.Snapshot = doc.Snapshot
	f.Assign = doc.Assign
	f.K = doc.K
	f.Report = doc.Report
	if doc.ARIvsPrev != nil {
		f.ARIvsPrev = *doc.ARIvsPrev
	} else {
		f.ARIvsPrev = math.NaN()
	}
	f.Path = doc.Path
	f.Elapsed = time.Duration(doc.ElapsedMs * float64(time.Millisecond))
	return nil
}

// RunCtx re-partitions net for each of the selected snapshot indices
// and returns one frame per index, in order. Every pipeline stage of
// every frame observes ctx between bounded work items, so a
// multi-snapshot run can be cancelled or deadline-bounded mid-stream.
func RunCtx(ctx context.Context, net *roadnet.Network, snaps []traffic.Snapshot, at []int, mode Mode, cfg Config) ([]Frame, error) {
	if len(at) == 0 {
		return nil, fmt.Errorf("temporal: no snapshot indices")
	}
	for _, t := range at {
		if t < 0 || t >= len(snaps) {
			return nil, fmt.Errorf("temporal: snapshot index %d outside %d snapshots", t, len(snaps))
		}
	}
	tr, err := NewTracker(net, mode, cfg)
	if err != nil {
		return nil, err
	}
	frames := make([]Frame, 0, len(at))
	for _, t := range at {
		fr, err := tr.StepAt(ctx, snaps[t], t)
		if err != nil {
			return nil, fmt.Errorf("temporal: snapshot %d: %w", t, err)
		}
		frames = append(frames, fr)
	}
	return frames, nil
}

// partitionGlobal partitions the whole graph, selecting k by the ANS
// minimum over [2, KMax] when cfg.K is zero. A fixed K is clamped only to
// what the pipeline can produce.
func partitionGlobal(ctx context.Context, g *graph.Graph, f []float64, cfg Config) ([]int, error) {
	p, err := core.NewPipelineFromGraphCtx(ctx, g, f, core.Config{Scheme: cfg.Scheme, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	k := min(cfg.K, p.MaxK())
	if k == 0 {
		k = 1
		if max := min(cfg.KMax, p.MaxK()); max >= 2 {
			if k, _, err = p.BestKByANSCtx(ctx, 2, max); err != nil {
				return nil, err
			}
		}
	}
	res, err := p.PartitionKCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	return res.Assign, nil
}

// MeanARI averages the frame-to-frame agreement of a run, skipping the
// first frame's NaN (it has no predecessor — counting it as perfect
// agreement would bias every average toward stability). It returns NaN
// when no frame carries a defined ARI.
func MeanARI(frames []Frame) float64 {
	sum, n := 0.0, 0
	for _, fr := range frames {
		if math.IsNaN(fr.ARIvsPrev) {
			continue
		}
		sum += fr.ARIvsPrev
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
