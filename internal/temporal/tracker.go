package temporal

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/obs"
	"roadpart/internal/roadnet"
)

// Incremental-path accounting: one steps counter per compute path, one
// regions counter per outcome, and separate stage timers for delta and
// full work so an operator can see how much compute region reuse saves.
var (
	incStepsHelp = "Temporal tracker steps by compute path (full = everything recomputed, delta = only changed regions recomputed, reused = cached state replayed unchanged)."
	incFull      = obs.Default().Counter("roadpart_incremental_steps_total", incStepsHelp, "path", PathFull)
	incDelta     = obs.Default().Counter("roadpart_incremental_steps_total", incStepsHelp, "path", PathDelta)
	incReused    = obs.Default().Counter("roadpart_incremental_steps_total", incStepsHelp, "path", PathReused)

	incRegionsHelp = "Distributed-mode regions processed by the temporal tracker, by outcome."
	regRecomputed  = obs.Default().Counter("roadpart_incremental_regions_total", incRegionsHelp, "result", "recomputed")
	regReused      = obs.Default().Counter("roadpart_incremental_regions_total", incRegionsHelp, "result", "reused")

	stageFullStep  = obs.StageTimer("temporal_full_step")
	stageDeltaStep = obs.StageTimer("temporal_delta_step")
)

// trackRegion is the cached state of one seed-frame region: its induced
// subgraph (built once — the topology never changes) and the last local
// split computed for it. The split is reused only while the region's
// densities are byte-identical to the ones that produced it, which is
// what keeps the incremental path bit-identical to a fresh Tracker.
type trackRegion struct {
	members  []int // dual-graph nodes, ascending (grouping order)
	sub      *graph.Graph
	orig     []int     // sub node -> global node
	subF     []float64 // scratch: current densities restricted to the region
	local    []int     // cached local labels; nil until first computed
	maxLocal int       // max(local), cached for stitching
	dirty    bool      // no split cached, or densities changed since it was computed
}

// Tracker owns the long-lived state of an incremental re-partitioning
// stream: the dual graph (built once), the current density vector and
// its fingerprint, and the seed partition and per-region caches of the
// distributed regime. It advances one snapshot (Step/StepAt) or one
// sparse delta (ApplyDelta) at a time and recomputes only the regions
// whose densities changed.
//
// Reuse never changes results: a cached region split is replayed only
// when that region's densities are byte-identical to the run that
// computed it, and a whole frame is replayed only when nothing changed
// at all, so a Tracker's frames are bit-identical to those of a fresh
// Tracker stepped on the same densities (the goldens in tracker_test.go
// pin this). A Tracker is safe for concurrent use; steps serialize on an
// internal mutex (the stream is inherently ordered).
type Tracker struct {
	mode Mode
	cfg  Config

	mu         sync.Mutex
	g          *graph.Graph
	n          int // segment count
	structHash uint64
	densHash   uint64
	f          []float64 // current densities; nil before the first step
	steps      int       // frames produced so far
	prev       *Frame    // last frame produced
	seedAssign []int     // frame 0's partition (distributed regime anchor)
	regions    []*trackRegion
	nodeRegion []int // dual-graph node -> region index
}

// NewTracker prepares a tracker for net: it builds the dual graph once
// and fingerprints the structure. Densities arrive per step, so the
// network's current densities are not consulted until the first
// Step/ApplyDelta.
func NewTracker(net *roadnet.Network, mode Mode, cfg Config) (*Tracker, error) {
	cfg.defaults()
	g, err := roadnet.DualGraph(net)
	if err != nil {
		return nil, err
	}
	return &Tracker{
		mode:       mode,
		cfg:        cfg,
		g:          g,
		n:          len(net.Segments),
		structHash: net.StructureHash(),
	}, nil
}

// Steps reports how many frames the tracker has produced.
func (t *Tracker) Steps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.steps
}

// Segments reports the segment count every density vector must match.
func (t *Tracker) Segments() int { return t.n }

// Fingerprints returns the structure hash (fixed at construction) and
// the density hash of the tracker's current vector (0 before the first
// step) — the pair result-cache entries for this network are tagged
// with, so a density update can invalidate exactly the entries it made
// stale.
func (t *Tracker) Fingerprints() (structure, density uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.structHash, t.densHash
}

// Step advances the tracker to a full density vector f, producing the
// next frame. The snapshot index is the step sequence number; use StepAt
// to label frames with an external snapshot index.
func (t *Tracker) Step(ctx context.Context, f []float64) (Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stepLocked(ctx, f, t.steps)
}

// StepAt is Step labeling the frame with the given snapshot index.
func (t *Tracker) StepAt(ctx context.Context, f []float64, snapshot int) (Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stepLocked(ctx, f, snapshot)
}

// ApplyDelta advances the tracker by a sparse density delta, maintaining
// the density fingerprint incrementally (O(updates), not O(segments))
// and recomputing only the regions the delta touches. The frame's
// snapshot index is the step sequence number. A delta before any full
// Step is an error — the tracker has no base vector to patch.
func (t *Tracker) ApplyDelta(ctx context.Context, delta roadnet.DensityDelta) (Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return Frame{}, fmt.Errorf("temporal: delta before any density snapshot")
	}
	if err := delta.Validate(t.n); err != nil {
		return Frame{}, err
	}
	f := append([]float64(nil), t.f...)
	hash := t.densHash
	for _, u := range delta {
		hash = roadnet.UpdateDensityHash(hash, u.Segment, f[u.Segment], u.Density)
		f[u.Segment] = u.Density
	}
	return t.advanceLocked(ctx, f, hash, t.steps)
}

// stepLocked validates and fingerprints a full vector, then advances.
func (t *Tracker) stepLocked(ctx context.Context, f []float64, snapshot int) (Frame, error) {
	if len(f) != t.n {
		return Frame{}, fmt.Errorf("temporal: %d densities for %d segments", len(f), t.n)
	}
	fc := append([]float64(nil), f...)
	return t.advanceLocked(ctx, fc, roadnet.DensityVectorHash(fc), snapshot)
}

// advanceLocked produces the next frame from the already-copied density
// vector f. It owns the compute-path decision: the first frame runs
// full, unchanged densities replay, anything else recomputes (in the
// distributed regime, only the dirty regions).
func (t *Tracker) advanceLocked(ctx context.Context, f []float64, hash uint64, snapshot int) (Frame, error) {
	t0 := time.Now()
	changed := t.changedSegments(f)
	assign, path, err := t.computeAssign(ctx, f, changed)
	if err != nil {
		return Frame{}, err
	}

	var rep metrics.Report
	if path == PathReused && t.prev != nil {
		// Same densities, same assignment: Evaluate is a pure function of
		// (f, assign, g), so the previous report is bit-identical.
		rep = t.prev.Report
	} else {
		if rep, err = metrics.Evaluate(f, assign, t.g); err != nil {
			return Frame{}, err
		}
	}
	ari := math.NaN()
	if t.prev != nil {
		if ari, err = metrics.ARI(t.prev.Assign, assign); err != nil {
			return Frame{}, err
		}
	}
	fr := Frame{
		Snapshot:  snapshot,
		Assign:    assign,
		K:         rep.K,
		Report:    rep,
		ARIvsPrev: ari,
		Path:      path,
		Elapsed:   time.Since(t0),
	}
	t.f = f
	t.densHash = hash
	t.steps++
	t.prev = &fr
	switch path {
	case PathFull:
		incFull.Inc()
	case PathDelta:
		incDelta.Inc()
	default:
		incReused.Inc()
	}
	return fr, nil
}

// changedSegments returns the indices whose densities differ (bitwise)
// from the tracker's current vector; nil on the first step.
func (t *Tracker) changedSegments(f []float64) []int {
	if t.f == nil {
		return nil
	}
	var changed []int
	for i := range f {
		if math.Float64bits(f[i]) != math.Float64bits(t.f[i]) {
			changed = append(changed, i)
		}
	}
	return changed
}

// computeAssign runs the mode's compute for one step and reports the
// path taken.
func (t *Tracker) computeAssign(ctx context.Context, f []float64, changed []int) ([]int, string, error) {
	// First frame: always a full global partition; it anchors the
	// distributed regime's seed regions.
	if t.steps == 0 || (t.mode == ModeGlobal && len(changed) > 0) {
		sp := stageFullStep.Start()
		assign, err := partitionGlobal(ctx, t.g, f, t.cfg)
		sp.End()
		if err != nil {
			return nil, "", err
		}
		if t.steps == 0 {
			t.seedAssign = assign
		}
		return assign, PathFull, nil
	}
	if t.mode == ModeGlobal {
		// Nothing moved: a recompute would deterministically reproduce
		// the previous frame.
		return append([]int(nil), t.prev.Assign...), PathReused, nil
	}

	// Distributed regime: re-split the SEED frame's regions (not the
	// previous refinement — otherwise splits compound round over round).
	if err := t.ensureRegions(); err != nil {
		return nil, "", err
	}
	for _, v := range changed {
		t.regions[t.nodeRegion[v]].dirty = true
	}
	dirty := 0
	for _, r := range t.regions {
		if r.dirty {
			dirty++
		}
	}
	path := PathDelta
	timer := stageDeltaStep
	switch dirty {
	case 0:
		path = PathReused
	case len(t.regions):
		// Every region recomputes — the first re-split after the seed
		// frame, or a change that touched every region. Either way this
		// is full work.
		path = PathFull
		timer = stageFullStep
	}
	sp := timer.Start()
	assign, err := t.resplit(ctx, f)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	return assign, path, nil
}

// ensureRegions builds the per-region caches from the seed assignment:
// member lists in ascending node order, plus each region's induced
// subgraph (computed once — structure is immutable).
func (t *Tracker) ensureRegions() error {
	if t.regions != nil {
		return nil
	}
	byLabel := map[int][]int{}
	for v, l := range t.seedAssign {
		byLabel[l] = append(byLabel[l], v)
	}
	t.regions = make([]*trackRegion, len(byLabel))
	t.nodeRegion = make([]int, len(t.seedAssign))
	for l := 0; l < len(byLabel); l++ {
		members, ok := byLabel[l]
		if !ok {
			return fmt.Errorf("temporal: seed assignment labels not dense at %d", l)
		}
		sub, orig, err := t.g.Induced(members)
		if err != nil {
			return err
		}
		t.regions[l] = &trackRegion{
			members: members,
			sub:     sub,
			orig:    orig,
			subF:    make([]float64, len(members)),
			dirty:   true, // no split cached yet
		}
		for _, v := range members {
			t.nodeRegion[v] = l
		}
	}
	return nil
}

// resplit produces the distributed frame: dirty regions recompute their
// local split from the current densities, clean regions replay the
// cached one, and the locals stitch into a global labeling in region
// order. A dirty region splits into up to SubKMax parts by
// core.BestSplit, or stays whole when it has fewer than 4 segments or no
// split scores within KeepANS. ctx is observed between regions — one
// region's split is the cancellation grain.
func (t *Tracker) resplit(ctx context.Context, f []float64) ([]int, error) {
	out := make([]int, t.n)
	next := 0
	for l, r := range t.regions {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("temporal: re-split interrupted at region %d of %d: %w", l, len(t.regions), err)
		}
		if r.dirty {
			for i, v := range r.orig {
				r.subF[i] = f[v]
			}
			r.local, r.maxLocal = make([]int, r.sub.N()), 0
			if r.sub.N() >= 4 {
				best, err := core.BestSplit(ctx, r.sub, r.subF, core.Config{Scheme: t.cfg.Scheme, Seed: t.cfg.Seed}, t.cfg.SubKMax, t.cfg.KeepANS)
				if err != nil {
					return nil, err
				}
				if best != nil {
					r.local, r.maxLocal = best.Assign, best.K-1
				}
			}
			r.dirty = false
			regRecomputed.Inc()
		} else {
			regReused.Inc()
		}
		for i, v := range r.orig {
			out[v] = next + r.local[i]
		}
		next += r.maxLocal + 1
	}
	return out, nil
}
