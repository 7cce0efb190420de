package roadnet

import (
	"bytes"
	"strings"
	"testing"
)

// crossNet builds a 4-way crossroads: center intersection 0 with arms to
// 1..4, one directed segment per arm heading inward.
func crossNet() *Network {
	n := &Network{
		Intersections: []Intersection{
			{ID: 0, X: 0, Y: 0},
			{ID: 1, X: 100, Y: 0},
			{ID: 2, X: -100, Y: 0},
			{ID: 3, X: 0, Y: 100},
			{ID: 4, X: 0, Y: -100},
		},
	}
	for i := 1; i <= 4; i++ {
		n.Segments = append(n.Segments, Segment{ID: i - 1, From: i, To: 0, Length: 100, Density: float64(i)})
	}
	return n
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := crossNet().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadInputs(t *testing.T) {
	cases := map[string]func(*Network){
		"bad intersection id": func(n *Network) { n.Intersections[1].ID = 7 },
		"bad segment id":      func(n *Network) { n.Segments[0].ID = 9 },
		"endpoint range":      func(n *Network) { n.Segments[0].To = 99 },
		"loop segment":        func(n *Network) { n.Segments[0].To = n.Segments[0].From },
		"zero length":         func(n *Network) { n.Segments[0].Length = 0 },
		"negative density":    func(n *Network) { n.Segments[0].Density = -1 },
	}
	for name, corrupt := range cases {
		n := crossNet()
		corrupt(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestDualGraphStarFormsClique(t *testing.T) {
	// Four segments meeting at one intersection must form a 4-clique
	// (Definition 2: star topology → clique).
	g, err := DualGraph(crossNet())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("dual has %d nodes, want 4", g.N())
	}
	if g.M() != 6 {
		t.Fatalf("dual has %d edges, want 6 (4-clique)", g.M())
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if !g.HasEdge(i, j) {
				t.Fatalf("clique edge (%d,%d) missing", i, j)
			}
		}
	}
}

func TestDualGraphLinearStaysLinear(t *testing.T) {
	// A chain of 3 segments stays a path in the dual.
	n := &Network{
		Intersections: []Intersection{{0, 0, 0}, {1, 100, 0}, {2, 200, 0}, {3, 300, 0}},
		Segments: []Segment{
			{ID: 0, From: 0, To: 1, Length: 100},
			{ID: 1, From: 1, To: 2, Length: 100},
			{ID: 2, From: 2, To: 3, Length: 100},
		},
	}
	g, err := DualGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatalf("chain dual wrong: %d edges", g.M())
	}
}

func TestDualGraphTwoWayPairSingleLink(t *testing.T) {
	// The two directions of a two-way road share both intersections but
	// must be connected by exactly one dual link.
	n := &Network{
		Intersections: []Intersection{{0, 0, 0}, {1, 100, 0}},
		Segments: []Segment{
			{ID: 0, From: 0, To: 1, Length: 100},
			{ID: 1, From: 1, To: 0, Length: 100},
		},
	}
	g, err := DualGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("two-way pair should yield exactly 1 dual edge, got %d", g.M())
	}
}

func TestDualGraphRejectsInvalid(t *testing.T) {
	n := crossNet()
	n.Segments[0].Length = -5
	if _, err := DualGraph(n); err == nil {
		t.Fatal("invalid network should be rejected")
	}
}

func TestDensitiesRoundTrip(t *testing.T) {
	n := crossNet()
	d := n.Densities()
	if d[2] != 3 {
		t.Fatalf("density[2] = %v, want 3", d[2])
	}
	d[2] = 99 // copy, not alias
	if n.Segments[2].Density == 99 {
		t.Fatal("Densities should return a copy")
	}
	if err := n.SetDensities([]float64{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	if n.Segments[0].Density != 9 {
		t.Fatal("SetDensities did not apply")
	}
	if err := n.SetDensities([]float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestStats(t *testing.T) {
	st := crossNet().Stats()
	if st.Intersections != 5 || st.Segments != 4 {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if st.MeanDensity != 2.5 || st.MaxDensity != 4 {
		t.Fatalf("density stats wrong: %+v", st)
	}
}

func TestSegmentMidpoint(t *testing.T) {
	n := crossNet()
	x, y := n.SegmentMidpoint(0) // from (100,0) to (0,0)
	if x != 50 || y != 0 {
		t.Fatalf("midpoint = (%v,%v), want (50,0)", x, y)
	}
}

func TestOutSegments(t *testing.T) {
	n := crossNet()
	out := n.OutSegments()
	if len(out[0]) != 0 {
		t.Fatal("center has no outgoing segments in crossNet")
	}
	if len(out[1]) != 1 || out[1][0] != 0 {
		t.Fatalf("out[1] = %v", out[1])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := crossNet()
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Segments) != 4 || back.Segments[3].Density != 4 {
		t.Fatalf("round trip lost data: %+v", back.Segments)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	for _, src := range []string{
		`{"Segments":[{"ID":0,"From":0,"To":9,"Length":1}]}`,
		`not json`,
		`{"Segments":[],"Roads":[]}`,                   // unknown field
		`{"Segments":[],"segments":[]}`,                // repeated name
		`{"Intersections":[{"ID":0,"ID":0}]}`,          // repeated name in an element
		`{"Segments":[]} {"Segments":[]}`,              // trailing data
		`{"Intersections":[{"ID":0,"X":1e999,"Y":0}]}`, // out of float64 range
		`{"Intersections":[{"ID":1.0}]}`,               // not an integer
	} {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted, want an error", src)
		}
	}
}

func TestDensityCSVRoundTrip(t *testing.T) {
	n := crossNet()
	var buf bytes.Buffer
	if err := n.WriteDensitiesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	n2 := crossNet()
	n2.SetDensities([]float64{0, 0, 0, 0})
	if err := n2.ReadDensitiesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for i := range n.Segments {
		if n2.Segments[i].Density != n.Segments[i].Density {
			t.Fatalf("CSV round trip mismatch at %d", i)
		}
	}
}

func TestDensityCSVErrors(t *testing.T) {
	n := crossNet()
	cases := map[string]string{
		"partial coverage": "segment_id,density\n0,1\n",
		"duplicate":        "0,1\n0,2\n1,1\n2,1\n3,1\n",
		"bad density":      "0,x\n",
		"out of range":     "9,1\n",
		"negative":         "0,-3\n1,1\n2,1\n3,1\n",
	}
	for name, csvText := range cases {
		if err := n.ReadDensitiesCSV(strings.NewReader(csvText)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
