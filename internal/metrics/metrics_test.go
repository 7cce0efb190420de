package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"roadpart/internal/graph"
)

// lineGraph returns a path graph on n nodes.
func lineGraph(n int) *graph.Graph {
	gb := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		gb.AddEdge(i, i+1, 1)
	}
	g := gb.Build()
	return g
}

// goodSplit returns a 6-node path, features in two obvious groups, plus
// the ideal and a deliberately bad assignment.
func goodSplit() (*graph.Graph, []float64, []int, []int) {
	g := lineGraph(6)
	f := []float64{1, 1.1, 0.9, 10, 10.1, 9.9}
	good := []int{0, 0, 0, 1, 1, 1}
	bad := []int{0, 0, 1, 1, 0, 0} // mixes the two density regimes
	return g, f, good, bad
}

func TestEvaluateOrdersGoodOverBad(t *testing.T) {
	g, f, good, bad := goodSplit()
	// bad is not connected per partition, so evaluate directly without
	// validation: metrics must still be computable.
	rg, err := Evaluate(f, good, g)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Evaluate(f, bad, g)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Inter <= rb.Inter {
		t.Fatalf("good split inter %v should beat bad %v", rg.Inter, rb.Inter)
	}
	if rg.Intra >= rb.Intra {
		t.Fatalf("good split intra %v should beat bad %v", rg.Intra, rb.Intra)
	}
	if rg.GDBI >= rb.GDBI {
		t.Fatalf("good split GDBI %v should beat bad %v", rg.GDBI, rb.GDBI)
	}
	if rg.ANS >= rb.ANS {
		t.Fatalf("good split ANS %v should beat bad %v", rg.ANS, rb.ANS)
	}
}

func TestInterExactSmallCase(t *testing.T) {
	// Two partitions {0,1} and {2}: f = {0, 2, 5}.
	// InterDist = mean(|0-5|, |2-5|) = 4.
	g := lineGraph(3)
	f := []float64{0, 2, 5}
	rep, err := Evaluate(f, []int{0, 0, 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Inter-4) > 1e-12 {
		t.Fatalf("inter = %v, want 4", rep.Inter)
	}
}

func TestIntraExactSmallCase(t *testing.T) {
	// Partition {0,1,2} with f={0,2,5}: pairs |0-2|,|0-5|,|2-5| → mean 10/3.
	// Partition {3} contributes 0. Average = 5/3.
	f := []float64{0, 2, 5, 9}
	rep, err := Evaluate(f, []int{0, 0, 0, 1}, lineGraph(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Intra-5.0/3) > 1e-12 {
		t.Fatalf("intra = %v, want 5/3", rep.Intra)
	}
}

func TestMeanPairwiseMatchesNaive(t *testing.T) {
	fcheck := func(raw []float64) bool {
		var f []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				f = append(f, math.Mod(v, 1e6))
			}
		}
		if len(f) < 2 {
			return true
		}
		members := make([]int, len(f))
		for i := range members {
			members[i] = i
		}
		sp := newSortedPart(f, members)
		got := sp.meanPairwise()
		var s float64
		for i := range f {
			for j := i + 1; j < len(f); j++ {
				s += math.Abs(f[i] - f[j])
			}
		}
		want := s / (float64(len(f)) * float64(len(f)-1) / 2)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(fcheck, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCrossMatchesNaive(t *testing.T) {
	f := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := newSortedPart(f, []int{0, 1, 2})
	b := newSortedPart(f, []int{3, 4, 5, 6, 7})
	got := meanCross(&a, &b)
	var s float64
	for _, i := range []int{0, 1, 2} {
		for _, j := range []int{3, 4, 5, 6, 7} {
			s += math.Abs(f[i] - f[j])
		}
	}
	want := s / 15
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("meanCross = %v, want %v", got, want)
	}
}

func TestGDBIPenalizesCloseMeans(t *testing.T) {
	g := lineGraph(6)
	farMeans := []float64{1, 1, 1, 50, 50, 50}
	closeMeans := []float64{1, 1.2, 1.1, 1.3, 1.25, 1.45}
	assign := []int{0, 0, 0, 1, 1, 1}
	far, err := Evaluate(farMeans, assign, g)
	if err != nil {
		t.Fatal(err)
	}
	near, err := Evaluate(closeMeans, assign, g)
	if err != nil {
		t.Fatal(err)
	}
	if far.GDBI >= near.GDBI {
		t.Fatalf("well-separated partitions should have lower GDBI: %v vs %v", far.GDBI, near.GDBI)
	}
}

func TestANSInteriorStructure(t *testing.T) {
	// ANS for the ideal split of clearly two-regime data should be well
	// below 1 (internal similarity ≫ similarity to the neighbor).
	g, f, good, _ := goodSplit()
	v, err := ANS(f, good, g)
	if err != nil {
		t.Fatal(err)
	}
	if v >= 1 {
		t.Fatalf("ANS = %v, want < 1 for the ideal split", v)
	}
}

func TestANSSinglePartitionIsZero(t *testing.T) {
	g := lineGraph(4)
	v, err := ANS([]float64{1, 2, 3, 4}, []int{0, 0, 0, 0}, g)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("ANS with one partition = %v, want 0 (no adjacent partitions)", v)
	}
}

func TestANSDegenerateCap(t *testing.T) {
	// Partition means identical (b ≈ 0 for boundary nodes) must not blow
	// up past the cap.
	g := lineGraph(4)
	v, err := ANS([]float64{5, 5, 5, 5}, []int{0, 0, 1, 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v > nsCap {
		t.Fatalf("ANS = %v outside [0, %d]", v, nsCap)
	}
}

func TestValidatePartition(t *testing.T) {
	g := lineGraph(4)
	if err := ValidatePartition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if err := ValidatePartition(g, []int{0, 1, 0, 1}); err == nil {
		t.Fatal("disconnected partitions should fail C.2")
	}
	if err := ValidatePartition(g, []int{0, 0, 2, 2}); err == nil {
		t.Fatal("non-dense labels should fail C.1")
	}
	if err := ValidatePartition(g, []int{0, 0}); err == nil {
		t.Fatal("short assignment should fail")
	}
	if err := ValidatePartition(g, []int{0, 0, 0, -1}); err == nil {
		t.Fatal("negative labels should fail")
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := lineGraph(3)
	if _, err := Evaluate([]float64{1, 2}, []int{0, 0, 0}, g); err == nil {
		t.Fatal("feature length mismatch should error")
	}
	if _, err := Evaluate(nil, nil, graph.NewBuilder(0).Build()); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := Evaluate([]float64{1, 2, 3}, []int{0, -1, 0}, g); err == nil {
		t.Fatal("negative label should error")
	}
}

func TestSumAbsToEdges(t *testing.T) {
	sp := newSortedPart([]float64{1, 3, 5}, []int{0, 1, 2})
	cases := []struct{ x, want float64 }{
		{0, 9}, // 1+3+5
		{3, 4}, // 2+0+2
		{6, 9}, // 5+3+1
		{1, 6}, // 0+2+4
	}
	for _, c := range cases {
		if got := sp.sumAbsTo(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("sumAbsTo(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}
