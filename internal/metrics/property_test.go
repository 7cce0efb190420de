package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"roadpart/internal/graph"
)

// TestARISymmetryProperty: ARI(a, b) == ARI(b, a) for random labelings.
func TestARISymmetryProperty(t *testing.T) {
	f := func(rawA, rawB []uint8, nn uint8) bool {
		n := int(nn%30) + 2
		a := make([]int, n)
		b := make([]int, n)
		for i := 0; i < n; i++ {
			if i < len(rawA) {
				a[i] = int(rawA[i] % 4)
			}
			if i < len(rawB) {
				b[i] = int(rawB[i] % 4)
			}
		}
		ab, err1 := ARI(a, b)
		ba, err2 := ARI(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		d := ab - ba
		return d < 1e-12 && d > -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestARISelfIdentityProperty: ARI(a, a) == 1 whenever a has at least two
// distinct labels (with a single label both indices coincide and the
// convention returns 1 as well).
func TestARISelfIdentityProperty(t *testing.T) {
	f := func(raw []uint8, nn uint8) bool {
		n := int(nn%30) + 2
		a := make([]int, n)
		for i := 0; i < n; i++ {
			if i < len(raw) {
				a[i] = int(raw[i] % 5)
			}
		}
		v, err := ARI(a, a)
		if err != nil {
			return false
		}
		return v > 1-1e-12 && v < 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMeanCrossSymmetryProperty: the cross-partition mean distance is
// symmetric in its arguments.
func TestMeanCrossSymmetryProperty(t *testing.T) {
	f := func(rawA, rawB []int8) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		fa := make([]float64, len(rawA))
		idxA := make([]int, len(rawA))
		for i, v := range rawA {
			fa[i] = float64(v)
			idxA[i] = i
		}
		fb := make([]float64, len(rawB))
		idxB := make([]int, len(rawB))
		for i, v := range rawB {
			fb[i] = float64(v)
			idxB[i] = i
		}
		a := newSortedPart(fa, idxA)
		b := newSortedPart(fb, idxB)
		x, y := meanCross(&a, &b), meanCross(&b, &a)
		d := x - y
		return d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newSortedPart is the per-partition build sortedParts replaced, kept as
// its oracle: the members' values in the given order, sorted, with their
// own prefix-sum slice.
func newSortedPart(f []float64, members []int) sortedPart {
	vals := make([]float64, len(members))
	for i, v := range members {
		vals[i] = f[v]
	}
	sort.Float64s(vals)
	prefix := make([]float64, len(vals)+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
	}
	var mean float64
	if len(vals) > 0 {
		mean = prefix[len(vals)] / float64(len(vals))
	}
	return sortedPart{vals: vals, prefix: prefix, mean: mean}
}

// TestSortedPartsMatchesPerPart holds the shared-array build to the
// per-partition oracle bit for bit — values, prefix sums and means — on
// random labelings with empty partitions, ties, signed zeros and
// repeated values.
func TestSortedPartsMatchesPerPart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 0.1, 2.5, -3, 1e-300, 7}
	for trial := 0; trial < 500; trial++ {
		n, k := 1+rng.Intn(60), 1+rng.Intn(8)
		f := make([]float64, n)
		assign := make([]int, n)
		for v := range f {
			if rng.Intn(3) == 0 {
				f[v] = pool[rng.Intn(len(pool))]
			} else {
				f[v] = rng.NormFloat64()
			}
			assign[v] = rng.Intn(k)
		}
		got := sortedParts(f, assign, k)
		for p, members := range partMembers(assign, k) {
			want := newSortedPart(f, members)
			same := len(got[p].vals) == len(want.vals) && len(got[p].prefix) == len(want.prefix) &&
				math.Float64bits(got[p].mean) == math.Float64bits(want.mean)
			for i := range want.vals {
				same = same && math.Float64bits(got[p].vals[i]) == math.Float64bits(want.vals[i])
			}
			for i := range want.prefix {
				same = same && math.Float64bits(got[p].prefix[i]) == math.Float64bits(want.prefix[i])
			}
			if !same {
				t.Fatalf("trial %d partition %d: shared build %+v, per-part %+v", trial, p, got[p], want)
			}
		}
	}
}

// partMembers lists every partition's nodes in node order.
func partMembers(assign []int, k int) [][]int {
	parts := make([][]int, k)
	for v, a := range assign {
		parts[a] = append(parts[a], v)
	}
	return parts
}

// adjacencyOracle is the partition adjacency Evaluate read before the
// quotient graph: one set per partition, listed in ascending order.
func adjacencyOracle(g *graph.Graph, assign []int, k int) [][]int {
	sets := make([]map[int]bool, k)
	for i := range sets {
		sets[i] = map[int]bool{}
	}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if a, b := assign[u], assign[e.To]; a != b {
				sets[a][b] = true
				sets[b][a] = true
			}
		}
	}
	adj := make([][]int, k)
	for i, s := range sets {
		for j := range s {
			adj[i] = append(adj[i], j)
		}
		sort.Ints(adj[i])
	}
	return adj
}

// randomLabeling draws a graph on 1–40 nodes (sparse draws leave it
// disconnected, repeated pairs add parallel edges) and a labeling into
// up to 8 partitions, some of them empty.
func randomLabeling(rng *rand.Rand) (*graph.Graph, []int, int) {
	n, k := 1+rng.Intn(40), 1+rng.Intn(8)
	gb := graph.NewBuilder(n)
	for e := rng.Intn(2*n + 1); e > 0; e-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			gb.AddEdge(u, v, 1)
		}
	}
	assign := make([]int, n)
	for v := range assign {
		assign[v] = rng.Intn(k)
	}
	return gb.Build(), assign, k
}

// TestQuotientAdjacencyMatchesOracle requires the quotient graph's rows
// to list exactly the oracle's adjacent partitions, in the same order,
// so every metric sum accumulates as before.
func TestQuotientAdjacencyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		g, assign, k := randomLabeling(rng)
		q, err := g.Quotient(assign, k, func(int, int, float64) float64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range adjacencyOracle(g, assign, k) {
			var got []int
			for _, e := range q.Neighbors(p) {
				got = append(got, e.To)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d partition %d: quotient row %v, oracle %v", trial, p, got, want)
			}
		}
	}
}

// TestValidatePartitionMatchesPerPartCheck requires ValidatePartition to
// accept exactly the labelings whose partitions are all non-empty and
// connected, checked one partition at a time, and to name a partition
// that is empty or disconnected when it refuses.
func TestValidatePartitionMatchesPerPartCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	refused := 0
	for trial := 0; trial < 500; trial++ {
		g, assign, k := randomLabeling(rng)
		k = slices.Max(assign) + 1
		bad := map[int]string{}
		for p, m := range partMembers(assign, k) {
			switch {
			case len(m) == 0:
				bad[p] = "is empty"
			case !g.IsConnectedSubset(m):
				bad[p] = "is not connected"
			}
		}
		err := ValidatePartition(g, assign)
		if (err == nil) != (len(bad) == 0) {
			t.Fatalf("trial %d %v: err %v, bad partitions %v", trial, assign, err, bad)
		}
		if err == nil {
			continue
		}
		refused++
		named := false
		for p, why := range bad {
			named = named || strings.Contains(err.Error(), fmt.Sprintf("partition %d %s", p, why))
		}
		if !named {
			t.Fatalf("trial %d: %v names none of %v", trial, err, bad)
		}
	}
	if refused == 0 || refused == 500 {
		t.Fatalf("vacuous: %d of 500 labelings refused", refused)
	}
}
