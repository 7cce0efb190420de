package hierarchy

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

func hierNet(t *testing.T) *roadnet.Network {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 250, TargetSegments: 460, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := traffic.Simulate(net, traffic.SimConfig{Vehicles: 1400, Steps: 300, RecordEvery: 300, Hotspots: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snaps[0]); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildTreeInvariants(t *testing.T) {
	net := hierNet(t)
	root, err := Build(net, Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Members) != len(net.Segments) {
		t.Fatalf("root spans %d of %d segments", len(root.Members), len(net.Segments))
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Validate(g); err != nil {
		t.Fatal(err)
	}
	if root.Children == nil {
		t.Fatal("root did not split (hotspot data should support one split)")
	}
	if len(root.Leaves()) < 2 {
		t.Fatal("tree has fewer than 2 leaves")
	}
}

func TestFlattenLevels(t *testing.T) {
	net := hierNet(t)
	root, err := Build(net, Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	prevK := 0
	for level := 0; level <= 3; level++ {
		assign, k := root.FlattenLevel(level)
		if level == 0 && k != 1 {
			t.Fatalf("level 0 should be a single region, got %d", k)
		}
		if k < prevK {
			t.Fatalf("region count decreased with depth: %d then %d", prevK, k)
		}
		prevK = k
		if err := metrics.ValidatePartition(g, assign); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
}

func TestMinSizeStopsSplitting(t *testing.T) {
	net := hierNet(t)
	root, err := Build(net, Config{Scheme: core.ASG, Seed: 1, MinSize: len(net.Segments) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if root.Children != nil {
		t.Fatal("MinSize above network size should forbid any split")
	}
}

func TestDescribe(t *testing.T) {
	net := hierNet(t)
	root, err := Build(net, Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := root.Describe(); s == "" {
		t.Fatal("empty description")
	}
}

// hashTree fingerprints a tree with FNV-64a: the flattened assignment at
// levels 1..3 (K, then every label) followed by every node's ANS in
// depth-first order.
func hashTree(root *Node) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	for level := 1; level <= 3; level++ {
		assign, k := root.FlattenLevel(level)
		put(uint64(k))
		for _, a := range assign {
			put(uint64(a))
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		put(math.Float64bits(n.ANS))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return h.Sum64()
}

// hierarchyGoldens pins Build's output on hierNet under the default
// config, so the region split it shares with the temporal tracker cannot
// drift silently.
var hierarchyGoldens = map[core.Scheme]uint64{
	core.ASG: 0xf274d9303ea62c65,
	core.AG:  0x164e40bae5a3d04e,
}

func TestBuildGoldens(t *testing.T) {
	net := hierNet(t)
	for scheme, want := range hierarchyGoldens {
		root, err := Build(net, Config{Scheme: scheme, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := hashTree(root); got != want {
			t.Errorf("%v: tree hash %#016x, want %#016x", scheme, got, want)
		}
	}
}

// TestMinSizeOneBuilds: MinSize 1 is "no size floor", so one-segment
// regions reach the split. They have no k >= 2 and must stay leaves
// before any mining runs — the supergraph schemes cannot mine one point.
func TestMinSizeOneBuilds(t *testing.T) {
	net := hierNet(t)
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []core.Scheme{core.ASG, core.NSG} {
		root, err := Build(net, Config{Scheme: scheme, Seed: 1, MinSize: 1})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if err := root.Validate(g); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
}

// TestValidateHandBuiltTrees checks Validate on a path 0-1-2-3-4-5: a
// valid three-level tree passes (every node reuses the same mark buffer),
// and a disconnected, duplicated or out-of-range region is reported.
func TestValidateHandBuiltTrees(t *testing.T) {
	gb := graph.NewBuilder(6)
	for i := 0; i+1 < 6; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	tree := func(left, right []int) *Node {
		return &Node{Members: []int{0, 1, 2, 3, 4, 5}, Children: []*Node{
			{Members: left, Depth: 1, Children: []*Node{
				{Members: left[:1], Depth: 2}, {Members: left[1:], Depth: 2},
			}},
			{Members: right, Depth: 1},
		}}
	}
	if err := tree([]int{2, 1, 0}, []int{3, 4, 5}).Validate(g); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	for name, root := range map[string]*Node{
		"disconnected child": tree([]int{0, 1, 3}, []int{2, 4, 5}),
		"split grandchild":   tree([]int{1, 0, 2}, []int{3, 4, 5}),
		"repeated segment":   {Members: []int{0, 1, 1, 2, 3, 4}},
		"segment outside":    {Members: []int{0, 1, 2, 3, 4, 6}},
	} {
		if root.Validate(g) == nil {
			t.Errorf("%s: Validate accepted an invalid tree", name)
		}
	}
}
