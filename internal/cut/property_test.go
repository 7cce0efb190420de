package cut

import (
	"testing"
	"testing/quick"

	"roadpart/internal/graph"
)

// randomConnected builds a connected graph from fuzz input: a spanning
// path plus arbitrary extra edges with positive weights.
func randomConnected(n int, extra []uint16) *graph.Graph {
	gb := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	for i := 0; i+2 < len(extra); i += 3 {
		u, v := int(extra[i])%n, int(extra[i+1])%n
		if u == v {
			continue
		}
		w := float64(extra[i+2]%100)/100 + 0.01
		gb.AddEdge(u, v, w)
	}
	g := gb.Build()
	return g
}

// TestPartitionValidityProperty: for random connected graphs and any
// feasible k, both methods return a dense labeling with exactly k
// non-empty partitions.
func TestPartitionValidityProperty(t *testing.T) {
	f := func(extra []uint16, nn, kk uint8) bool {
		n := int(nn%20) + 6
		k := int(kk%4) + 2
		if k > n {
			k = n
		}
		g := randomConnected(n, extra)
		for _, method := range []Method{MethodAlphaCut, MethodNCut} {
			res, err := partition(g, k, method, Options{Seed: 7})
			if err != nil {
				return false
			}
			if res.K != k || len(res.Assign) != n {
				return false
			}
			seen := make([]bool, k)
			for _, a := range res.Assign {
				if a < 0 || a >= k {
					return false
				}
				seen[a] = true
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCutValueIdentityProperty: for any assignment,
// α-Cut = Σ_i (vol_i²/total − within_i)/|P_i| must equal the form computed
// from NCutValue's building blocks — i.e. the three accessors stay
// mutually consistent; and modularity stays within [-1, 1].
func TestCutValueIdentityProperty(t *testing.T) {
	f := func(extra []uint16, labels []uint8, nn uint8) bool {
		n := int(nn%20) + 4
		g := randomConnected(n, extra)
		assign := make([]int, n)
		for i := range assign {
			if i < len(labels) {
				assign[i] = int(labels[i] % 3)
			}
		}
		// Densify labels so validateAssign's k covers all used ids.
		q, err := Modularity(g, assign)
		if err != nil {
			return false
		}
		if q < -1-1e-9 || q > 1+1e-9 {
			return false
		}
		nv, err := NCutValue(g, assign)
		if err != nil {
			return false
		}
		// ncut of k partitions lies in [0, k].
		return nv >= -1e-9 && nv <= 3+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRepairIdempotentProperty: repairing an already repaired labeling
// changes nothing.
func TestRepairIdempotentProperty(t *testing.T) {
	f := func(extra []uint16, labels []uint8, nn, kk uint8) bool {
		n := int(nn%20) + 4
		k := int(kk%3) + 1
		g := randomConnected(n, extra)
		f64 := make([]float64, n)
		assign := make([]int, n)
		for i := range assign {
			if i < len(labels) {
				assign[i] = int(labels[i] % 4)
				f64[i] = float64(labels[i]%16) / 4
			}
		}
		once, k1, err := RepairConnectivity(g, f64, assign, k)
		if err != nil {
			return false
		}
		twice, k2, err := RepairConnectivity(g, f64, once, k)
		if err != nil {
			return false
		}
		if k1 != k2 {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
