package cut

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/eigen"
	"roadpart/internal/graph"
	"roadpart/internal/linalg"
)

// partition runs a fresh Spectral once — the single-k form of the
// partitioner.
func partition(g *graph.Graph, k int, method Method, opts Options) (*Result, error) {
	return NewSpectral(g, method, opts).PartitionCtx(context.Background(), k)
}

// barbell builds two cliques of size m joined by a single weak bridge.
func barbell(m int, inW, bridgeW float64) *graph.Graph {
	gb := graph.NewBuilder(2 * m)
	for off := 0; off < 2; off++ {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				gb.AddEdge(off*m+i, off*m+j, inW)
			}
		}
	}
	gb.AddEdge(m-1, m, bridgeW)
	g := gb.Build()
	return g
}

func TestAlphaCutMatrixIsNegativeModularityMatrix(t *testing.T) {
	// M = ddᵀ/s − A must equal the negative of Newman's modularity matrix
	// B = A − ddᵀ/2m (Section 7 of the paper).
	g := barbell(3, 1, 0.2)
	adj, err := g.AdjacencyCSR()
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewAlphaCutOp(adj)
	if err != nil {
		t.Fatal(err)
	}
	m := opColumns(op)
	d := adj.RowSums()
	s := linalg.Sum(d)
	for i := 0; i < adj.Rows(); i++ {
		for j := 0; j < adj.Cols(); j++ {
			b := adj.At(i, j) - d[i]*d[j]/s
			if math.Abs(m[j][i]+b) > 1e-12 {
				t.Fatalf("M(%d,%d)=%v, -B=%v", i, j, m[j][i], -b)
			}
		}
	}
}

// opColumns returns the columns op·e_j of op, one per unit vector.
func opColumns(op eigen.Op) [][]float64 {
	n := op.Dim()
	cols := make([][]float64, n)
	unit := make([]float64, n)
	for j := range cols {
		unit[j] = 1
		cols[j] = make([]float64, n)
		op.Apply(cols[j], unit)
		unit[j] = 0
	}
	return cols
}

// checkApplyMatchesDense compares op·x with the product of x and the
// matrix whose entries entry computes from closed form.
func checkApplyMatchesDense(t *testing.T, op eigen.Op, x []float64, entry func(i, j int) float64) {
	t.Helper()
	n := op.Dim()
	got := make([]float64, n)
	op.Apply(got, x)
	for i := 0; i < n; i++ {
		var want float64
		for j := 0; j < n; j++ {
			want += entry(i, j) * x[j]
		}
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("Apply[%d] = %v, dense %v", i, got[i], want)
		}
	}
}

func TestAlphaCutOpApplyMatchesDense(t *testing.T) {
	g := barbell(4, 1, 0.3)
	adj, _ := g.AdjacencyCSR()
	op, _ := NewAlphaCutOp(adj)
	d := adj.RowSums()
	s := linalg.Sum(d)
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	// M = ddᵀ/s − A.
	checkApplyMatchesDense(t, op, x, func(i, j int) float64 { return d[i]*d[j]/s - adj.At(i, j) })
}

func TestNCutOpApplyMatchesDense(t *testing.T) {
	g := barbell(4, 1, 0.3)
	adj, _ := g.AdjacencyCSR()
	op, _ := NewNCutOp(adj)
	d := adj.RowSums()
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	// L_sym = I − D^{−1/2} A D^{−1/2}; the barbell has no isolated node.
	checkApplyMatchesDense(t, op, x, func(i, j int) float64 {
		l := -adj.At(i, j) / math.Sqrt(d[i]*d[j])
		if i == j {
			l++
		}
		return l
	})
}

func TestNCutSmallestEigenvalueZero(t *testing.T) {
	// L_sym of a connected graph has smallest eigenvalue 0 with
	// eigenvector D^{1/2}·1.
	g := barbell(5, 1, 1)
	adj, _ := g.AdjacencyCSR()
	op, _ := NewNCutOp(adj)
	dec, err := eigen.SymEigen(op)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]) > 1e-10 {
		t.Fatalf("smallest L_sym eigenvalue = %v, want 0", dec.Values[0])
	}
	if dec.Values[1] < 1e-10 {
		t.Fatal("connected graph should have single zero eigenvalue")
	}
}

func TestPartitionAlphaCutBarbell(t *testing.T) {
	g := barbell(6, 1, 0.05)
	res, err := partition(g, 2, MethodAlphaCut, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d, want 2", res.K)
	}
	// The bridge must be the only cut: each clique is one partition.
	for i := 1; i < 6; i++ {
		if res.Assign[i] != res.Assign[0] {
			t.Fatalf("left clique split: %v", res.Assign)
		}
	}
	for i := 7; i < 12; i++ {
		if res.Assign[i] != res.Assign[6] {
			t.Fatalf("right clique split: %v", res.Assign)
		}
	}
	if res.Assign[0] == res.Assign[6] {
		t.Fatal("cliques not separated")
	}
}

func TestPartitionNCutBarbell(t *testing.T) {
	g := barbell(6, 1, 0.05)
	res, err := partition(g, 2, MethodNCut, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d, want 2", res.K)
	}
	if res.Assign[0] == res.Assign[11] {
		t.Fatal("ncut failed to separate the cliques")
	}
}

func TestPartitionProducesConnectedPartitions(t *testing.T) {
	// A ring of 4 weakly joined cliques, k=3: whatever the reduction does,
	// every returned partition must be connected (condition C.2).
	const m = 4
	gb := graph.NewBuilder(4 * m)
	for c := 0; c < 4; c++ {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				gb.AddEdge(c*m+i, c*m+j, 1)
			}
		}
	}
	for c := 0; c < 4; c++ {
		gb.AddEdge(c*m, ((c+1)%4)*m, 0.1)
	}
	g := gb.Build()
	for _, method := range []Method{MethodAlphaCut, MethodNCut} {
		res, err := partition(g, 3, method, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if res.K != 3 {
			t.Fatalf("%v: K = %d, want 3", method, res.K)
		}
		parts := make([][]int, res.K)
		for v, p := range res.Assign {
			parts[p] = append(parts[p], v)
		}
		for p, members := range parts {
			if len(members) == 0 {
				t.Fatalf("%v: empty partition %d", method, p)
			}
		}
	}
}

func TestPartitionKEqualsOneAndN(t *testing.T) {
	g := barbell(3, 1, 1)
	one, err := partition(g, 1, MethodAlphaCut, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if one.K != 1 {
		t.Fatalf("k=1 gave K=%d", one.K)
	}
	full, err := partition(g, g.N(), MethodAlphaCut, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.K != g.N() {
		t.Fatalf("k=n gave K=%d, want %d", full.K, g.N())
	}
}

func TestPartitionErrors(t *testing.T) {
	g := barbell(3, 1, 1)
	if _, err := partition(g, 0, MethodAlphaCut, Options{}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := partition(g, g.N()+1, MethodAlphaCut, Options{}); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := barbell(5, 1, 0.1)
	a, err := partition(g, 2, MethodAlphaCut, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition(g, 2, MethodAlphaCut, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("partitioning should be deterministic in seed")
		}
	}
}

func TestAlphaCutValuePrefersGoodSplit(t *testing.T) {
	g := barbell(5, 1, 0.05)
	good := make([]int, 10)
	for i := 5; i < 10; i++ {
		good[i] = 1
	}
	bad := make([]int, 10)
	for i := 0; i < 10; i += 2 {
		bad[i] = 1
	}
	gv, err := AlphaCutValue(g, good)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := AlphaCutValue(g, bad)
	if err != nil {
		t.Fatal(err)
	}
	if gv >= bv {
		t.Fatalf("α-Cut(good)=%v should be < α-Cut(bad)=%v", gv, bv)
	}
}

func TestModularityAgreesWithAlphaCutOrdering(t *testing.T) {
	// Lower α-Cut must correspond to higher modularity on the same splits.
	g := barbell(5, 1, 0.05)
	splits := [][]int{
		make([]int, 10),
		make([]int, 10),
	}
	for i := 5; i < 10; i++ {
		splits[0][i] = 1
	}
	for i := 0; i < 10; i += 3 {
		splits[1][i] = 1
	}
	var ac, mod [2]float64
	for s, split := range splits {
		var err error
		if ac[s], err = AlphaCutValue(g, split); err != nil {
			t.Fatal(err)
		}
		if mod[s], err = Modularity(g, split); err != nil {
			t.Fatal(err)
		}
	}
	if (ac[0] < ac[1]) != (mod[0] > mod[1]) {
		t.Fatalf("α-Cut and modularity orderings disagree: ac=%v mod=%v", ac, mod)
	}
}

func TestNCutValueBounds(t *testing.T) {
	g := barbell(5, 1, 0.05)
	split := make([]int, 10)
	for i := 5; i < 10; i++ {
		split[i] = 1
	}
	v, err := NCutValue(g, split)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v >= 2 {
		t.Fatalf("2-way ncut value %v outside (0,2)", v)
	}
}

func TestCutValueValidation(t *testing.T) {
	g := barbell(3, 1, 1)
	if _, err := AlphaCutValue(g, []int{0}); err == nil {
		t.Fatal("short assignment should error")
	}
	if _, err := AlphaCutValue(g, []int{-1, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("negative label should error")
	}
}

func TestGreedyPruningReduction(t *testing.T) {
	// Force k′ > k and reduce via greedy pruning; result must still have
	// exactly k non-empty partitions.
	const m = 4
	gb := graph.NewBuilder(4 * m)
	for c := 0; c < 4; c++ {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				gb.AddEdge(c*m+i, c*m+j, 1)
			}
		}
	}
	for c := 0; c < 3; c++ {
		gb.AddEdge(c*m, (c+1)*m, 0.1)
	}
	g := gb.Build()
	res, err := partition(g, 2, MethodAlphaCut, Options{Seed: 5, Reduction: ReduceGreedyPruning})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("greedy pruning gave K=%d, want 2", res.K)
	}
}

func TestGrowPathOnUniformGraph(t *testing.T) {
	// A complete graph with uniform weights has a fully degenerate
	// spectral embedding: k-means collapses the clusters, k′ < k, and the
	// grow path (bipartition of the largest partition with the index
	// fallback) must still deliver exactly k connected partitions.
	const n = 8
	gb := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gb.AddEdge(i, j, 1)
		}
	}
	g := gb.Build()
	res, err := partition(g, 3, MethodAlphaCut, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d, want 3", res.K)
	}
	seen := map[int]int{}
	for _, a := range res.Assign {
		seen[a]++
	}
	if len(seen) != 3 {
		t.Fatalf("partition ids %v", seen)
	}
}

func TestMethodString(t *testing.T) {
	if MethodAlphaCut.String() != "alpha-cut" || MethodNCut.String() != "normalized-cut" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should still print")
	}
}
