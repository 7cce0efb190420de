package cluster

import (
	"context"
	"math"
	"testing"

	"roadpart/internal/kmeans"
)

// twoBlob returns scalar data with two well-separated groups.
func twoBlob() []float64 {
	var data []float64
	for i := 0; i < 20; i++ {
		data = append(data, 1+0.01*float64(i))
	}
	for i := 0; i < 20; i++ {
		data = append(data, 100+0.01*float64(i))
	}
	return data
}

func clusterWith(t *testing.T, data []float64, k int) ([]int, []float64) {
	t.Helper()
	res, err := kmeans.OneD(data, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	means := make([]float64, k)
	for c := 0; c < k; c++ {
		means[c] = res.Mean1(c)
	}
	return res.Assign, means
}

func TestMeasurePerfectSplit(t *testing.T) {
	data := twoBlob()
	assign, means := clusterWith(t, data, 2)
	st, err := Measure(data, assign, means, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.MCG <= 0 {
		t.Fatalf("MCG = %v, want > 0 for a clean split", st.MCG)
	}
	if st.Gain <= 0 {
		t.Fatalf("Gain = %v, want > 0", st.Gain)
	}
	// Tight clusters: intra error tiny relative to inter.
	if st.IntraError > st.InterError/100 {
		t.Fatalf("intra %v should be tiny vs inter %v", st.IntraError, st.InterError)
	}
	// Θ2 ≈ 1 for tight clusters, so MCG ≈ Gain.
	if math.Abs(st.MCG-st.Gain) > 0.01*st.Gain {
		t.Fatalf("MCG %v should approach Gain %v for tight clusters", st.MCG, st.Gain)
	}
}

func TestMCGElbowAtTrueK(t *testing.T) {
	// Three separated blobs. As in the paper's Figure 5, MCG rises steeply
	// up to the true cluster count and changes little after it, so the
	// elbow rule must land on κ=3 even if the raw maximum drifts higher.
	var data []float64
	for _, c := range []float64{0, 50, 100} {
		for i := 0; i < 30; i++ {
			data = append(data, c+0.05*float64(i))
		}
	}
	vals := map[int]float64{}
	for k := 2; k <= 6; k++ {
		assign, means := clusterWith(t, data, k)
		v, err := MCG(data, assign, means, k)
		if err != nil {
			t.Fatal(err)
		}
		vals[k] = v
	}
	rise := vals[3] - vals[2]
	if rise <= 0 {
		t.Fatalf("MCG should rise from κ=2 (%v) to κ=3 (%v)", vals[2], vals[3])
	}
	for k := 4; k <= 6; k++ {
		if math.Abs(vals[k]-vals[3]) > 0.25*rise {
			t.Fatalf("MCG should flatten after κ=3: κ=%d is %v vs %v (rise %v)", k, vals[k], vals[3], rise)
		}
	}
}

func TestMeasureSingleClusterAtGlobalMean(t *testing.T) {
	// One cluster: μ_q = μ_0, so Gain and MCG are exactly zero.
	data := []float64{1, 2, 3, 4}
	st, err := Measure(data, []int{0, 0, 0, 0}, []float64{2.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gain != 0 || st.MCG != 0 {
		t.Fatalf("single cluster should have zero gain/MCG, got %+v", st)
	}
	if st.IntraError == 0 {
		t.Fatal("intra error should be positive")
	}
}

func TestMeasureErrors(t *testing.T) {
	if _, err := Measure([]float64{1}, []int{0, 0}, []float64{1}, 1); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Measure([]float64{1}, []int{5}, []float64{1}, 1); err == nil {
		t.Fatal("out-of-range assignment should error")
	}
	if _, err := Measure([]float64{1}, []int{0}, []float64{1, 2}, 1); err == nil {
		t.Fatal("means/k mismatch should error")
	}
}

func TestMeasureEmptyData(t *testing.T) {
	st, err := Measure(nil, nil, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.MCG != 0 {
		t.Fatal("empty data should yield zero MCG")
	}
}

func TestTheta2Clamped(t *testing.T) {
	// A sloppy cluster far from compact: intra error >> separation, so the
	// raw Θ2 is negative and must clamp to 0 — MCG stays non-negative.
	data := []float64{-100, 100, 0.9, 1.1}
	assign := []int{0, 0, 1, 1}
	means := []float64{0, 1}
	st, err := Measure(data, assign, means, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.MCG < 0 {
		t.Fatalf("MCG should never be negative, got %v", st.MCG)
	}
}

func TestClusteringBalanceMinimumNearTrueK(t *testing.T) {
	// Jung et al.'s claim: clustering balance (intra + inter error sum)
	// reaches its minimum around the natural cluster count. Two blobs →
	// balance at κ=2 below κ=1-equivalent and below large κ.
	data := twoBlob()
	balance := map[int]float64{}
	for k := 2; k <= 8; k++ {
		assign, means := clusterWith(t, data, k)
		st, err := Measure(data, assign, means, k)
		if err != nil {
			t.Fatal(err)
		}
		balance[k] = st.Balance
	}
	for k := 3; k <= 8; k++ {
		if balance[2] > balance[k]*(1+1e-9) {
			t.Fatalf("balance should be minimal at the true κ=2: balance[2]=%v > balance[%d]=%v",
				balance[2], k, balance[k])
		}
	}
}

func TestSweepKappaShortlistAndOptimal(t *testing.T) {
	data := twoBlob()
	sw, err := SweepKappaCtx(context.Background(), data, SweepOptions{KappaMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 5 { // κ = 2..6
		t.Fatalf("expected 5 sweep points, got %d", len(sw.Points))
	}
	opt := sw.OptimalKappa()
	if opt < 2 || opt > 6 {
		t.Fatalf("optimal κ = %d out of range", opt)
	}
	short := sw.Shortlist(0)
	if len(short) != 5 {
		t.Fatalf("threshold 0 should shortlist everything, got %v", short)
	}
	// An impossible threshold still returns the best single κ.
	short = sw.Shortlist(math.Inf(1))
	if len(short) != 1 || short[0] != opt {
		t.Fatalf("fallback shortlist = %v, want [%d]", short, opt)
	}
}

func TestSweepKappaSampling(t *testing.T) {
	data := make([]float64, 5000)
	for i := range data {
		data[i] = float64(i % 7)
	}
	sw, err := SweepKappaCtx(context.Background(), data, SweepOptions{KappaMax: 4, SampleSize: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sw.SampleN != 500 {
		t.Fatalf("SampleN = %d, want 500", sw.SampleN)
	}
	// Deterministic in seed.
	sw2, err := SweepKappaCtx(context.Background(), data, SweepOptions{KappaMax: 4, SampleSize: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Points {
		if sw.Points[i].Stats.MCG != sw2.Points[i].Stats.MCG {
			t.Fatal("sweep should be deterministic in seed")
		}
	}
}

func TestSweepKappaErrors(t *testing.T) {
	if _, err := SweepKappaCtx(context.Background(), []float64{1}, SweepOptions{}); err == nil {
		t.Fatal("one point should error")
	}
}

func TestFullKMeans(t *testing.T) {
	data := twoBlob()
	assign, means, err := FullKMeans(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != len(data) || len(means) != 2 {
		t.Fatalf("shapes wrong: %d assigns, %d means", len(assign), len(means))
	}
	if _, _, err := FullKMeans(data, 0); err == nil {
		t.Fatal("κ=0 should error")
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i)
	}
	got := sampleWithoutReplacement(data, 50, 7)
	seen := map[float64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate sample value %v", v)
		}
		seen[v] = true
	}
}
