package gen

import (
	"testing"

	"roadpart/internal/roadnet"
)

func TestRadialCounts(t *testing.T) {
	net, err := Radial(RadialConfig{Rings: 3, Spokes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(net.Intersections), 1+3*8; got != want {
		t.Fatalf("intersections = %d, want %d", got, want)
	}
	// One-way: spokes contribute Rings*Spokes roads, rings Rings*Spokes.
	if got, want := len(net.Segments), 2*3*8; got != want {
		t.Fatalf("segments = %d, want %d", got, want)
	}
}

func TestRadialTwoWayDoubles(t *testing.T) {
	one, err := Radial(RadialConfig{Rings: 2, Spokes: 6})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Radial(RadialConfig{Rings: 2, Spokes: 6, TwoWay: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(two.Segments) != 2*len(one.Segments) {
		t.Fatalf("two-way should double segments: %d vs %d", len(two.Segments), len(one.Segments))
	}
}

func TestRadialDualConnected(t *testing.T) {
	net, err := Radial(RadialConfig{Rings: 4, Spokes: 10, Jitter: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, count := g.GroupComponents(make([]int, g.N())); count != 1 {
		t.Fatalf("radial dual should be connected, got %d components", count)
	}
}

func TestRadialValidation(t *testing.T) {
	if _, err := Radial(RadialConfig{Rings: 0, Spokes: 5}); err == nil {
		t.Fatal("0 rings should error")
	}
	if _, err := Radial(RadialConfig{Rings: 1, Spokes: 2}); err == nil {
		t.Fatal("2 spokes should error")
	}
}

func TestRadialDeterministic(t *testing.T) {
	a, err := Radial(RadialConfig{Rings: 2, Spokes: 5, Jitter: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Radial(RadialConfig{Rings: 2, Spokes: 5, Jitter: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Intersections {
		if a.Intersections[i] != b.Intersections[i] {
			t.Fatal("same seed should give identical layout")
		}
	}
}
