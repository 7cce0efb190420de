package experiments

import (
	"bytes"
	"strings"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/roadnet"
)

// All experiment tests run at ScaleSmall with few runs so the suite stays
// fast; the full-scale reproduction lives in cmd/experiments and the
// top-level benchmarks.

func TestBuildDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 || names[0] != "D1" || names[3] != "M3" {
		t.Fatalf("dataset names = %v", names)
	}
	if _, err := BuildDataset("bogus", ScaleSmall); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestBuildDatasetFullD1MatchesTable1(t *testing.T) {
	ds, err := BuildDataset("D1", ScaleFull)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Net.Stats()
	if st.Intersections != 237 || st.Segments != 420 {
		t.Fatalf("D1 = %d/%d, want 237/420", st.Intersections, st.Segments)
	}
	if st.MeanDensity <= 0 {
		t.Fatal("D1 should carry traffic")
	}
}

// TestTable1CityCounts pins the street networks BuildDataset generates at
// full scale to the exact Table 1 intersection and segment counts, with
// a connected dual road graph.
func TestTable1CityCounts(t *testing.T) {
	for _, sp := range specs {
		net, err := gen.City(sp.city(1))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if len(net.Intersections) != sp.intersections || len(net.Segments) != sp.segments {
			t.Fatalf("%s = %d/%d, want %d/%d", sp.name, len(net.Intersections), len(net.Segments), sp.intersections, sp.segments)
		}
		g, err := roadnet.DualGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		if _, count := g.GroupComponents(make([]int, g.N())); count != 1 {
			t.Fatalf("%s dual has %d components, want 1", sp.name, count)
		}
	}
}

func TestBuildDatasetSmallM1(t *testing.T) {
	ds, err := BuildDataset("M1", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Net.Stats()
	if st.Segments >= 17206 {
		t.Fatalf("small M1 should shrink, got %d segments", st.Segments)
	}
	if st.Segments < 500 {
		t.Fatalf("small M1 too small: %d segments", st.Segments)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
}

func TestFig4SmallRun(t *testing.T) {
	data, err := Fig4(Options{Scale: ScaleSmall, Runs: 2, KMin: 2, KMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Curves) != 3 {
		t.Fatalf("want 3 curves, got %d", len(data.Curves))
	}
	for _, c := range data.Curves {
		if len(c.K) == 0 {
			t.Fatalf("curve %s empty", c.Scheme)
		}
		for i := range c.K {
			if c.ANS[i] < 0 || c.GDBI[i] < 0 || c.Inter[i] < 0 || c.Intra[i] < 0 {
				t.Fatalf("negative metric in %s", c.Scheme)
			}
		}
	}
	var buf bytes.Buffer
	data.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 4(a)", "Figure 4(d)", "AG", "NG", "ANS minimum"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2SmallRun(t *testing.T) {
	data, err := Table2(Options{Scale: ScaleSmall, Runs: 2, KMin: 2, KMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 5 {
		t.Fatalf("want 5 rows (AG, ASG, NG, NSG, Ji&Ger), got %d", len(data.Rows))
	}
	for _, r := range data.Rows {
		if r.ANS <= 0 || r.K < 2 {
			t.Fatalf("suspicious row %+v", r)
		}
	}
	var buf bytes.Buffer
	data.Render(&buf)
	if !strings.Contains(buf.String(), "Ji&Geroliminis") {
		t.Fatal("render missing baseline row")
	}
}

func TestFig5SmallRun(t *testing.T) {
	data, err := Fig5(Options{Scale: ScaleSmall, KMin: 2, KMax: 8}, "M1")
	if err != nil {
		t.Fatal(err)
	}
	s := data.Series[0]
	if len(s.Kappa) != 7 {
		t.Fatalf("kappa points = %d, want 7", len(s.Kappa))
	}
	// Supernode counts grow (weakly) with κ.
	for i := 1; i < len(s.Supernodes); i++ {
		if s.Supernodes[i] < s.Supernodes[i-1] {
			// Mild non-monotonicity can occur on tiny data, but a big
			// drop means the counting is broken.
			if s.Supernodes[i-1]-s.Supernodes[i] > s.Supernodes[i-1]/2 {
				t.Fatalf("supernode counts collapse: %v", s.Supernodes)
			}
		}
	}
	if s.ElbowKappa < 2 {
		t.Fatalf("elbow κ = %d", s.ElbowKappa)
	}
	var buf bytes.Buffer
	data.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5 (M1)") {
		t.Fatal("render missing header")
	}
}

func TestFig6SmallRun(t *testing.T) {
	data, err := Fig6(Options{Scale: ScaleSmall}, "D1")
	if err != nil {
		t.Fatal(err)
	}
	s := data.Series[0]
	if len(s.Stability) == 0 {
		t.Fatal("no supernodes profiled")
	}
	for _, eta := range s.Stability {
		if eta < 0 || eta > 1 {
			t.Fatalf("stability %v outside [0,1]", eta)
		}
	}
	if s.Fraction(0) != 1 {
		t.Fatal("Fraction(0) should be 1")
	}
	if s.Fraction(1.1) != 0 {
		t.Fatal("Fraction above max should be 0")
	}
}

func TestFig7SmallRun(t *testing.T) {
	data, err := Fig7(Options{Scale: ScaleSmall, Runs: 1, KMin: 2, KMax: 5}, "M1")
	if err != nil {
		t.Fatal(err)
	}
	s := data.Series[0]
	if s.BestK < 2 || s.BestANS <= 0 {
		t.Fatalf("suspicious best: k=%d ans=%v", s.BestK, s.BestANS)
	}
	var buf bytes.Buffer
	data.Render(&buf)
	if !strings.Contains(buf.String(), "best ANS") {
		t.Fatal("render missing best line")
	}
}

func TestWriteCSVForms(t *testing.T) {
	fig5, err := Fig5(Options{Scale: ScaleSmall, KMin: 2, KMax: 4}, "M1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig5.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "dataset,kappa,mcg,supernodes" {
		t.Fatalf("fig5 header = %q", lines[0])
	}
	if len(lines) != 4 { // header + κ=2..4
		t.Fatalf("fig5 rows = %d, want 4", len(lines))
	}

	fig6, err := Fig6(Options{Scale: ScaleSmall}, "D1")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fig6.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "dataset,rank,stability") {
		t.Fatal("fig6 header wrong")
	}

	fig7, err := Fig7(Options{Scale: ScaleSmall, Runs: 1, KMin: 2, KMax: 3}, "M1")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fig7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ans") || !strings.Contains(buf.String(), "gdbi") {
		t.Fatal("fig7 CSV missing metrics")
	}
}

func TestTable1SmallRun(t *testing.T) {
	data, err := Table1(Options{Scale: ScaleSmall})
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(data.Rows))
	}
	var buf bytes.Buffer
	data.Render(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestTable3SmallRun(t *testing.T) {
	data, err := Table3(Options{Scale: ScaleSmall}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(data.Rows))
	}
	for _, r := range data.Rows {
		if r.Total <= 0 || r.Total < r.Module3 {
			t.Fatalf("timing inconsistent: %+v", r)
		}
	}
}

func TestScalingStudy(t *testing.T) {
	data, err := Scaling(4, 300, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(data.Points))
	}
	for i := 1; i < len(data.Points); i++ {
		if data.Points[i].Segments <= data.Points[i-1].Segments {
			t.Fatal("sizes should increase")
		}
	}
	// The exponent must be finite and plausible (sub-cubic).
	if data.Exponent < -1 || data.Exponent > 3.5 {
		t.Fatalf("growth exponent %v implausible", data.Exponent)
	}
	var buf bytes.Buffer
	data.Render(&buf)
	if !strings.Contains(buf.String(), "growth exponent") {
		t.Fatal("render missing exponent line")
	}
}

func TestAblationsSmallRun(t *testing.T) {
	for name, run := range map[string]func() (*AblationData, error){
		"stability": func() (*AblationData, error) { return AblationStability(Options{Scale: ScaleSmall}, 4) },
		"weighting": func() (*AblationData, error) { return AblationWeighting(Options{Scale: ScaleSmall}, 4) },
		"reduction": func() (*AblationData, error) { return AblationReduction(Options{Scale: ScaleSmall}, 4) },
		"refine":    func() (*AblationData, error) { return AblationRefine(Options{Scale: ScaleSmall}, 4) },
		"eigen":     func() (*AblationData, error) { return AblationEigen(Options{}, 4, 150, 300) },
		"noise":     func() (*AblationData, error) { return AblationNoise(Options{Scale: ScaleSmall}, 4) },
		"kminit":    func() (*AblationData, error) { return AblationKMeansInit(Options{Scale: ScaleSmall}, 5) },
	} {
		data, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data.Rows) < 2 {
			t.Fatalf("%s: only %d rows", name, len(data.Rows))
		}
		var buf bytes.Buffer
		data.Render(&buf)
		if !strings.Contains(buf.String(), "Ablation") {
			t.Fatalf("%s: render missing title", name)
		}
	}
}
