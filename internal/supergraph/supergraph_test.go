package supergraph

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/graph"
)

// twoRegionGraph builds a path graph whose first half has low densities
// and second half high densities — the canonical two-supernode case.
func twoRegionGraph() (*graph.Graph, []float64) {
	const n = 20
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	f := make([]float64, n)
	for i := range f {
		if i < n/2 {
			f[i] = 0.01 + 0.001*float64(i)
		} else {
			f[i] = 0.10 + 0.001*float64(i)
		}
	}
	return g, f
}

func TestMineTwoRegions(t *testing.T) {
	g, f := twoRegionGraph()
	sg, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Nodes) != 2 {
		t.Fatalf("supernodes = %d, want 2", len(sg.Nodes))
	}
	// Members must partition the node set.
	total := 0
	for _, sn := range sg.Nodes {
		total += len(sn.Members)
	}
	if total != g.N() {
		t.Fatalf("members cover %d of %d nodes", total, g.N())
	}
	// NodeOf must be consistent with Members.
	for s, sn := range sg.Nodes {
		for _, v := range sn.Members {
			if sg.NodeOf[v] != s {
				t.Fatalf("NodeOf[%d] = %d, want %d", v, sg.NodeOf[v], s)
			}
		}
	}
	// One superlink between the two supernodes.
	if sg.Links.N() != 2 || sg.Links.M() != 1 {
		t.Fatalf("links = %d nodes / %d edges, want 2/1", sg.Links.N(), sg.Links.M())
	}
	// Supernodes must be internally connected.
	for s, sn := range sg.Nodes {
		if !g.IsConnectedSubset(sn.Members) {
			t.Fatalf("supernode %d disconnected", s)
		}
	}
}

func TestMineSplitsDisconnectedClusters(t *testing.T) {
	// Same density at both ends of a path with a different middle: the
	// density cluster {ends} is disconnected and must become two
	// supernodes.
	g := graph.New(9)
	for i := 0; i+1 < 9; i++ {
		g.AddEdge(i, i+1, 1)
	}
	f := []float64{0.01, 0.01, 0.01, 0.2, 0.2, 0.2, 0.01, 0.01, 0.01}
	sg, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Nodes) != 3 {
		t.Fatalf("supernodes = %d, want 3 (low, high, low)", len(sg.Nodes))
	}
	for s, sn := range sg.Nodes {
		if !g.IsConnectedSubset(sn.Members) {
			t.Fatalf("supernode %d disconnected", s)
		}
	}
}

func TestStabilityMeasure(t *testing.T) {
	// All members at the mean → η = 1.
	if s := Stability([]float64{5, 5, 5}); math.Abs(s-1) > 1e-15 {
		t.Fatalf("uniform stability = %v, want 1", s)
	}
	// Spread members → η < 1.
	if s := Stability([]float64{0, 10}); s >= 1 {
		t.Fatalf("spread stability = %v, want < 1", s)
	}
	// Wider spread is less stable.
	if Stability([]float64{4, 6}) <= Stability([]float64{0, 10}) {
		t.Fatal("tighter supernode should be more stable")
	}
	// Empty and singleton supernodes are trivially stable.
	if Stability(nil) != 1 || Stability([]float64{3}) != 1 {
		t.Fatal("degenerate supernodes should have stability 1")
	}
}

func TestMineStabilityCheckSplits(t *testing.T) {
	// A graph whose optimal clustering lumps dissimilar nodes: force a
	// split with a high stability threshold and verify more supernodes.
	g, f := twoRegionGraph()
	loose, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5, StabilityEps: 0.9999})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Nodes) <= len(loose.Nodes) {
		t.Fatalf("strict threshold should split: %d vs %d supernodes", len(strict.Nodes), len(loose.Nodes))
	}
	if strict.Stats.Splits == 0 {
		t.Fatal("expected recorded splits")
	}
	// All resulting supernodes stable at the threshold.
	for _, eta := range strict.StabilityProfile(f) {
		if eta < 0.9999 && eta != 1 {
			t.Fatalf("unstable supernode survived: η=%v", eta)
		}
	}
	// Members still partition the graph and stay connected.
	total := 0
	for s, sn := range strict.Nodes {
		total += len(sn.Members)
		if !g.IsConnectedSubset(sn.Members) {
			t.Fatalf("supernode %d disconnected after stability pass", s)
		}
	}
	if total != g.N() {
		t.Fatalf("stability pass lost nodes: %d of %d", total, g.N())
	}
}

func TestMineStabilityOneYieldsFinest(t *testing.T) {
	// ε_η = 1 accepts only exact-feature supernodes: with all-distinct
	// features every supernode is a single node (the paper's AG limit).
	g, f := twoRegionGraph()
	sg, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5, StabilityEps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Nodes) != g.N() {
		t.Fatalf("ε_η=1 with distinct features should give %d supernodes, got %d", g.N(), len(sg.Nodes))
	}
}

func TestSuperlinkWeightEq3(t *testing.T) {
	g, f := twoRegionGraph()
	sg, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Equation 3 reduces to the Gaussian of the feature gap.
	w := sg.Links.Neighbors(0)[0].W
	if w <= 0 || w >= 1 {
		t.Fatalf("superlink weight %v outside (0,1)", w)
	}
	fs := sg.Features()
	mu := (fs[0] + fs[1]) / 2
	sigma2 := ((fs[0]-mu)*(fs[0]-mu) + (fs[1]-mu)*(fs[1]-mu)) / 2
	want := math.Exp(-(fs[0] - fs[1]) * (fs[0] - fs[1]) / (2 * sigma2))
	if math.Abs(w-want) > 1e-12 {
		t.Fatalf("weight = %v, want %v", w, want)
	}
}

func TestSuperlinkWeightPerLinkDiffers(t *testing.T) {
	g, f := twoRegionGraph()
	eq3, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	per, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5, Weighting: WeightPerLink})
	if err != nil {
		t.Fatal(err)
	}
	w1 := eq3.Links.Neighbors(0)[0].W
	w2 := per.Links.Neighbors(0)[0].W
	if w1 == w2 {
		t.Fatal("per-link weighting should differ from Eq. 3 on this data")
	}
	if w2 < 0 || w2 > 1 {
		t.Fatalf("per-link weight %v outside [0,1]", w2)
	}
}

func TestExpandAssign(t *testing.T) {
	g, f := twoRegionGraph()
	sg, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	full, err := sg.ExpandAssign([]int{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range full {
		want := 7
		if sg.NodeOf[v] == 1 {
			want = 9
		}
		if p != want {
			t.Fatalf("expanded[%d] = %d, want %d", v, p, want)
		}
	}
	if _, err := sg.ExpandAssign([]int{1}); err == nil {
		t.Fatal("wrong-length assignment should error")
	}
}

func TestMineErrors(t *testing.T) {
	g, f := twoRegionGraph()
	if _, err := MineCtx(context.Background(), g, f[:3], MineOptions{}); err == nil {
		t.Fatal("feature length mismatch should error")
	}
	if _, err := MineCtx(context.Background(), graph.New(0), nil, MineOptions{}); err == nil {
		t.Fatal("empty graph should error")
	}
	if _, err := MineCtx(context.Background(), g, f, MineOptions{StabilityEps: 1.5}); err == nil {
		t.Fatal("out-of-range threshold should error")
	}
}

func TestMineRecordsStats(t *testing.T) {
	g, f := twoRegionGraph()
	sg, err := MineCtx(context.Background(), g, f, MineOptions{KappaMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := sg.Stats
	if st.Sweep == nil || len(st.Sweep.Points) == 0 {
		t.Fatal("sweep not recorded")
	}
	if len(st.Shortlist) == 0 {
		t.Fatal("shortlist empty")
	}
	if st.ChosenKappa < 2 {
		t.Fatalf("chosen κ = %d", st.ChosenKappa)
	}
	if st.SupernodesBeforeStability != len(sg.Nodes) {
		t.Fatal("no stability pass ran, counts should match")
	}
}
