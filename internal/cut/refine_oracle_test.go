package cut

import (
	"fmt"
	"slices"
	"testing"

	"roadpart/internal/graph"
	"roadpart/internal/linalg"
)

// refineOracle is RefineAlphaCut as it stood before RefineMoves: a full
// scan that evaluates every node, boundary or not, over the labels as
// given (unused ids included), for at most 8 passes, then the
// connectivity repair.
func refineOracle(g *graph.Graph, f []float64, assign []int) ([]int, int, int, error) {
	k, err := validateAssign(g, assign)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(f) != g.N() {
		return nil, 0, 0, fmt.Errorf("cut: refine: %d features for %d nodes", len(f), g.N())
	}
	const passes = 8

	labels := make([]int, len(assign))
	copy(labels, assign)
	within, volume, sizes := partitionWeights(g, labels, k)
	total := 2 * g.TotalWeight()
	if total == 0 {
		return labels, k, 0, nil
	}

	wTo := make([]float64, k)
	var adj []int
	moves := 0
	for pass := 0; pass < passes; pass++ {
		improved := 0
		for v := 0; v < g.N(); v++ {
			a := labels[v]
			if sizes[a] <= 1 {
				continue
			}
			var dv float64
			for _, b := range adj {
				wTo[b] = 0
			}
			adj = adj[:0]
			for _, e := range g.Neighbors(v) {
				dv += e.W
				b := labels[e.To]
				if !slices.Contains(adj, b) {
					adj = append(adj, b)
				}
				wTo[b] += e.W
			}
			slices.Sort(adj)
			base := partCost(volume[a], within[a], sizes[a], total)
			leaveA := partCost(volume[a]-dv, within[a]-2*wTo[a], sizes[a]-1, total)
			bestDelta := -1e-12
			bestB := -1
			for _, b := range adj {
				if b == a {
					continue
				}
				delta := leaveA + partCost(volume[b]+dv, within[b]+2*wTo[b], sizes[b]+1, total) -
					base - partCost(volume[b], within[b], sizes[b], total)
				if delta < bestDelta {
					bestDelta = delta
					bestB = b
				}
			}
			if bestB >= 0 {
				volume[a] -= dv
				volume[bestB] += dv
				within[a] -= 2 * wTo[a]
				within[bestB] += 2 * wTo[bestB]
				sizes[a]--
				sizes[bestB]++
				labels[v] = bestB
				improved++
			}
		}
		moves += improved
		if improved == 0 {
			break
		}
	}

	out, kk, err := RepairConnectivity(g, f, labels, k)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, kk, moves, nil
}

// TestRefineMatchesOracle requires RefineAlphaCut to return exactly the
// labels, partition count and move count of the full-scan oracle on
// random graphs with isolated nodes, unused label ids, tied move gains,
// zero-weight graphs and up to 12 partitions.
func TestRefineMatchesOracle(t *testing.T) {
	rng := linalg.RNGFromState(0x5eed)
	var totalMoves int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		gb := graph.NewBuilder(n)
		isolated := make([]bool, n)
		for v := range isolated {
			isolated[v] = rng.Bool(0.1)
		}
		zero := trial%25 == 0 // every edge weightless
		edges := rng.Intn(3*n + 1)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || isolated[u] || isolated[v] {
				continue
			}
			w := 0.05 + rng.Float64()
			switch {
			case zero:
				w = 0
			case trial%2 == 0: // small integer weights tie move gains
				w = float64(1 + rng.Intn(2))
			}
			if err := gb.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
		}
		g := gb.Build()
		// Labels come from a random subset of [0,12), so ids may be
		// unused anywhere in the range.
		k := 1 + rng.Intn(12)
		ids := rng.Perm(12)[:k]
		assign := make([]int, n)
		f := make([]float64, n)
		for v := range assign {
			assign[v] = ids[rng.Intn(k)]
			f[v] = rng.Float64() * 3
		}
		in := slices.Clone(assign)
		want, wantK, wantMoves, wantErr := refineOracle(g, f, assign)
		got, gotK, gotMoves, gotErr := RefineAlphaCut(g, f, assign)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error %v, oracle %v", trial, gotErr, wantErr)
		}
		if !slices.Equal(assign, in) {
			t.Fatalf("trial %d: RefineAlphaCut modified its input", trial)
		}
		if gotK != wantK || gotMoves != wantMoves || !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, k=%d): got k=%d moves=%d %v, oracle k=%d moves=%d %v",
				trial, n, k, gotK, gotMoves, got, wantK, wantMoves, want)
		}
		totalMoves += gotMoves
	}
	if totalMoves == 0 {
		t.Fatal("no trial moved a node; the comparison is vacuous")
	}
}
