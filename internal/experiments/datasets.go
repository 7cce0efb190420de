// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is a function that computes the
// underlying data and renders the same rows or series the paper reports;
// the cmd/experiments binary and the repository's top-level benchmarks are
// thin wrappers around this package.
//
// The datasets substitute synthetic equivalents for the paper's
// proprietary inputs (see DESIGN.md §3): D1 is a Downtown-San-Francisco-
// scale one-way grid with a multi-hotspot microsimulated density snapshot
// (the analogue of the shared microsimulation at t = 71), and M1–M3 are
// Melbourne-scale lattices carrying MNTG-style random-walk traffic at the
// paper's exact fleet sizes.
package experiments

import (
	"fmt"
	"sync"

	"roadpart/internal/gen"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// Scale selects dataset sizes: Full reproduces Table 1 exactly; Small
// shrinks the large networks ~16× so sweeps finish in seconds (benchmarks
// and smoke runs).
type Scale int

const (
	// ScaleSmall shrinks M1–M3 for fast runs; D1 is always full size.
	ScaleSmall Scale = iota
	// ScaleFull reproduces the Table 1 sizes exactly.
	ScaleFull
)

// Dataset is a named road network with densities applied.
type Dataset struct {
	Name string
	Net  *roadnet.Network
}

// datasetSpec mirrors Table 1 plus the traffic configuration used to
// populate each network.
type datasetSpec struct {
	name          string
	intersections int
	segments      int
	vehicles      int
	smallDivisor  int // Small scale shrinks counts by this factor
	hotspots      int
	seed          uint64
}

var specs = []datasetSpec{
	// D1: 420 segments, microsimulation analogue. The paper's D1 traffic
	// comes from a 4-hour microsimulation; 2500 vehicles on a 237-node
	// one-way downtown grid gives comparable per-segment densities.
	{name: "D1", intersections: 237, segments: 420, vehicles: 2500, smallDivisor: 1, hotspots: 8, seed: 0xD1},
	// M1–M3: MNTG fleet sizes from Section 6.1.
	{name: "M1", intersections: 10096, segments: 17206, vehicles: 25246, smallDivisor: 16, hotspots: 6, seed: 0x41},
	{name: "M2", intersections: 28465, segments: 53494, vehicles: 62300, smallDivisor: 16, hotspots: 7, seed: 0x42},
	{name: "M3", intersections: 42321, segments: 79487, vehicles: 84999, smallDivisor: 16, hotspots: 8, seed: 0x43},
}

// BuildDataset constructs one of D1, M1, M2, M3 at the given scale,
// with traffic simulated and the density snapshot applied.
//
// Builds are deterministic in (name, scale), so the expensive city
// generation and traffic microsimulation run once per pair and later
// calls are served from a process-wide cache. Every call returns a
// fresh Network clone, so callers may mutate densities (noise
// experiments, rescaling) without affecting each other.
func BuildDataset(name string, scale Scale) (*Dataset, error) {
	for _, sp := range specs {
		if sp.name == name {
			return cachedBuild(sp, scale)
		}
	}
	return nil, fmt.Errorf("experiments: unknown dataset %q (want D1, M1, M2 or M3)", name)
}

// buildKey identifies one deterministic dataset build.
type buildKey struct {
	name  string
	scale Scale
}

var (
	buildMu    sync.Mutex
	buildCache = map[buildKey]*Dataset{}
)

// cachedBuild memoizes buildFromSpec per (name, scale) and hands out a
// clone of the cached master network on every call. The master is never
// exposed, so no caller mutation can poison the cache. Failed builds are
// not cached (they are configuration errors and cheap to re-fail).
func cachedBuild(sp datasetSpec, scale Scale) (*Dataset, error) {
	key := buildKey{name: sp.name, scale: scale}
	buildMu.Lock()
	master, ok := buildCache[key]
	buildMu.Unlock()
	if !ok {
		built, err := buildFromSpec(sp, scale)
		if err != nil {
			return nil, err
		}
		buildMu.Lock()
		// A concurrent builder may have won the race; keep the first
		// entry so every clone descends from the same master.
		if existing, again := buildCache[key]; again {
			master = existing
		} else {
			buildCache[key] = built
			master = built
		}
		buildMu.Unlock()
	}
	return &Dataset{Name: master.Name, Net: master.Net.Clone()}, nil
}

// DatasetNames lists the available dataset names in paper order.
func DatasetNames() []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.name
	}
	return out
}

// city is the street-network configuration of the dataset with its
// Table 1 counts divided by div.
func (sp datasetSpec) city(div int) gen.CityConfig {
	return gen.CityConfig{
		TargetIntersections: sp.intersections / div,
		TargetSegments:      sp.segments / div,
		Spacing:             100,
		Jitter:              0.15,
		Seed:                sp.seed,
	}
}

func buildFromSpec(sp datasetSpec, scale Scale) (*Dataset, error) {
	div := 1
	if scale == ScaleSmall {
		div = sp.smallDivisor
	}
	net, err := gen.City(sp.city(div))
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s: %w", sp.name, err)
	}
	snaps, err := traffic.Simulate(net, traffic.SimConfig{
		Vehicles:    sp.vehicles / div,
		Steps:       600,
		RecordEvery: 6, // 100 recorded timestamps, like MNTG
		Hotspots:    sp.hotspots,
		WanderFrac:  0.35,
		Seed:        sp.seed * 7919,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: simulating %s: %w", sp.name, err)
	}
	// The paper evaluates at a single timestamp (t = 71 of 120 for D1);
	// we use the analogous late-simulation instantaneous snapshot.
	snap := snaps[(len(snaps)-1)*71/100]
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		return nil, err
	}
	return &Dataset{Name: sp.name, Net: net}, nil
}
