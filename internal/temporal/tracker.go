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
	"roadpart/internal/parallel"
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

	dirtyRegions = obs.Default().Histogram("roadpart_temporal_dirty_regions",
		"Seed regions re-split per distributed-mode tracker step (0 = the step replayed every region).",
		[]float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 32, 64})

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
	local    []int     // cached local labels of the tracker's densities; nil until first computed
	maxLocal int       // max(local), cached for stitching
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

	// splitDone, when set, is called after each dirty region's split is
	// computed — a seam for the tests that cancel a step part-way.
	splitDone func(region int)
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
// distributed regime, only the dirty regions). Tracker state changes
// only once the whole step has succeeded: a step that fails, say on a
// cancelled context, leaves the tracker exactly as it found it.
func (t *Tracker) advanceLocked(ctx context.Context, f []float64, hash uint64, snapshot int) (Frame, error) {
	t0 := time.Now()
	changed := t.changedSegments(f)
	assign, path, splits, err := t.computeAssign(ctx, f, changed)
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
	if t.steps == 0 {
		t.seedAssign = assign
	}
	t.commitSplits(splits)
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
// path taken. In the distributed regime it also returns the fresh splits
// of the regions it re-split, for advanceLocked to commit once the step
// has succeeded.
func (t *Tracker) computeAssign(ctx context.Context, f []float64, changed []int) ([]int, string, []regionSplit, error) {
	// First frame: always a full global partition; it anchors the
	// distributed regime's seed regions.
	if t.steps == 0 || (t.mode == ModeGlobal && len(changed) > 0) {
		sp := stageFullStep.Start()
		assign, err := partitionGlobal(ctx, t.g, f, t.cfg)
		sp.End()
		if err != nil {
			return nil, "", nil, err
		}
		return assign, PathFull, nil, nil
	}
	if t.mode == ModeGlobal {
		// Nothing moved: a recompute would deterministically reproduce
		// the previous frame.
		return append([]int(nil), t.prev.Assign...), PathReused, nil, nil
	}

	// Distributed regime: re-split the SEED frame's regions (not the
	// previous refinement — otherwise splits compound round over round).
	if err := t.ensureRegions(); err != nil {
		return nil, "", nil, err
	}
	touched := make([]bool, len(t.regions))
	for _, v := range changed {
		touched[t.nodeRegion[v]] = true
	}
	var dirty []int
	for l, r := range t.regions {
		if r.local == nil || touched[l] {
			dirty = append(dirty, l)
		}
	}
	path := PathDelta
	timer := stageDeltaStep
	switch len(dirty) {
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
	assign, splits, err := t.resplit(ctx, f, dirty)
	sp.End()
	if err != nil {
		return nil, "", nil, err
	}
	return assign, path, splits, nil
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
		}
		for _, v := range members {
			t.nodeRegion[v] = l
		}
	}
	return nil
}

// regionSplit is one dirty region's freshly computed split, held apart
// from the region's cache until the step that computed it succeeds.
type regionSplit struct {
	region   int
	local    []int
	maxLocal int
}

// resplit produces the distributed frame: the dirty regions recompute
// their local split from the current densities, clean regions replay
// the cached one, and the locals stitch into a global labeling in region
// order. A dirty region splits into up to SubKMax parts by
// core.BestSplit, or stays whole when it has fewer than 4 segments or no
// split scores within KeepANS.
//
// The dirty regions are independent, so they re-split concurrently on
// up to Config.Workers goroutines, each into its own slot; stitching in
// region order makes the frame bit-identical for every worker count.
// Cancellation is observed before each region starts and inside its
// BestSplit; a cancelled step returns once the regions already started
// have stopped, and its error is the context's. The fresh splits are
// returned rather than cached: a step that fails part-way must not
// leave regions holding splits of densities the tracker never adopted.
func (t *Tracker) resplit(ctx context.Context, f []float64, dirty []int) ([]int, []regionSplit, error) {
	splits := make([]regionSplit, len(dirty))
	cfg := core.Config{Scheme: t.cfg.Scheme, Seed: t.cfg.Seed, Workers: t.cfg.Workers}
	err := parallel.ForErrCtx(ctx, len(dirty), t.cfg.Workers, func(i int) error {
		l := dirty[i]
		r := t.regions[l]
		s := regionSplit{region: l, local: make([]int, r.sub.N())}
		if r.sub.N() >= 4 {
			for j, v := range r.orig {
				r.subF[j] = f[v]
			}
			best, err := core.BestSplit(ctx, r.sub, r.subF, cfg, t.cfg.SubKMax, t.cfg.KeepANS)
			if err != nil {
				return err
			}
			if best != nil {
				s.local, s.maxLocal = best.Assign, best.K-1
			}
		}
		splits[i] = s
		if t.splitDone != nil {
			t.splitDone(l)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("temporal: re-splitting %d of %d regions: %w", len(dirty), len(t.regions), err)
	}
	out := make([]int, t.n)
	next, d := 0, 0
	for l, r := range t.regions {
		local, maxLocal := r.local, r.maxLocal
		if d < len(splits) && splits[d].region == l {
			local, maxLocal = splits[d].local, splits[d].maxLocal
			d++
		}
		for i, v := range r.orig {
			out[v] = next + local[i]
		}
		next += maxLocal + 1
	}
	return out, splits, nil
}

// commitSplits adopts a successful step's fresh region splits into the
// region caches and records the step's region accounting. It does
// nothing before the distributed regime's regions exist.
func (t *Tracker) commitSplits(splits []regionSplit) {
	if t.regions == nil {
		return
	}
	for _, s := range splits {
		r := t.regions[s.region]
		r.local, r.maxLocal = s.local, s.maxLocal
	}
	dirtyRegions.Observe(float64(len(splits)))
	regRecomputed.Add(uint64(len(splits)))
	regReused.Add(uint64(len(t.regions) - len(splits)))
}
