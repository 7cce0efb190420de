package supergraph

import (
	"context"
	"testing"
	"testing/quick"

	"roadpart/internal/graph"
)

// TestMineInvariantsProperty checks, for random connected graphs with
// random quantized features, the structural invariants of mining:
// members partition the node set, every supernode is internally connected,
// NodeOf is the inverse of Members, and superlinks only join supernodes
// that actually share a road-graph edge.
func TestMineInvariantsProperty(t *testing.T) {
	f := func(rawFeatures []uint8, extraEdges []uint16, nn uint8) bool {
		n := int(nn%40) + 5
		gb := graph.NewBuilder(n)
		// Spanning path keeps it connected; extra random edges vary the
		// topology.
		for i := 0; i+1 < n; i++ {
			gb.AddEdge(i, i+1, 1)
		}
		for i := 0; i+1 < len(extraEdges); i += 2 {
			u, v := int(extraEdges[i])%n, int(extraEdges[i+1])%n
			if u != v {
				gb.AddEdge(u, v, 1)
			}
		}
		g := gb.Build()
		features := make([]float64, n)
		for i := range features {
			if i < len(rawFeatures) {
				features[i] = float64(rawFeatures[i]%8) / 10
			}
		}
		sg, err := MineCtx(context.Background(), g, features, MineOptions{KappaMax: 6, StabilityEps: 0.95})
		if err != nil {
			return false
		}
		if _, pieces := g.GroupComponents(sg.NodeOf); pieces != len(sg.Nodes) {
			return false
		}
		seen := make([]bool, n)
		for s, sn := range sg.Nodes {
			if len(sn.Members) == 0 {
				return false
			}
			for _, v := range sn.Members {
				if seen[v] || sg.NodeOf[v] != s {
					return false
				}
				seen[v] = true
			}
		}
		for _, v := range seen {
			if !v {
				return false
			}
		}
		// Superlinks imply at least one road-graph edge between members.
		for p := 0; p < sg.Links.N(); p++ {
			for _, e := range sg.Links.Neighbors(p) {
				if e.To < p {
					continue
				}
				found := false
				for _, u := range sg.Nodes[p].Members {
					for _, ge := range g.Neighbors(u) {
						if sg.NodeOf[ge.To] == e.To {
							found = true
						}
					}
				}
				if !found {
					return false
				}
				if e.W < 0 || e.W > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStabilityBoundsProperty: η(ς) always lies in (0, 1] for
// non-negative features.
func TestStabilityBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		fs := make([]float64, len(raw))
		for i, v := range raw {
			fs[i] = float64(v) / 100
		}
		eta := Stability(fs)
		return eta > 0 && eta <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
