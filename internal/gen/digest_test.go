package gen

import (
	"hash/fnv"
	"math"
	"testing"

	"roadpart/internal/roadnet"
)

// networkDigest is an FNV-64 hash of every intersection's coordinate bits
// and every segment's (From, To, Length bits), in slice order.
func networkDigest(net *roadnet.Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range net.Intersections {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	for _, s := range net.Segments {
		put(uint64(s.From))
		put(uint64(s.To))
		put(math.Float64bits(s.Length))
	}
	return h.Sum64()
}

// TestGeneratorDigests pins every generated network bit for bit: the
// intersection coordinates and each segment's endpoints and length, for
// City (the D1 and M1 presets, a jittered grid, a target that promotes
// roads to two-way and one below the spanning-tree floor) and ScaleTier
// (tiers S, M and L at two seeds). A generator change that moves any
// RNG draw or any rounding shows here before it reaches a golden.
func TestGeneratorDigests(t *testing.T) {
	cities := []struct {
		name string
		cfg  CityConfig
		want uint64
	}{
		{"D1", table1City(237, 420, 0xD1), 0x29effacbec5c9333},
		{"M1", table1City(10096, 17206, 0x41), 0x70be50cf32f84a12},
		{"jittered", CityConfig{TargetIntersections: 120, TargetSegments: 200, Seed: 9, Jitter: 0.2}, 0x3eb4a1e6fb790a57},
		{"two-way", CityConfig{TargetIntersections: 100, TargetSegments: 300, Seed: 2, Spacing: 50}, 0x4360c9a24930a2bb},
		{"tree-floor", CityConfig{TargetIntersections: 150, TargetSegments: 40, Seed: 3}, 0x4153d6b008e905f9},
	}
	for _, c := range cities {
		net, err := City(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := networkDigest(net); got != c.want {
			t.Errorf("City %s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
	tiers := []struct {
		tier Tier
		seed uint64
		want uint64
	}{
		{TierS, 1, 0xaf9324c5b753b106}, {TierS, 7, 0xf6107586b8762599},
		{TierM, 1, 0xd31f5af13b364bec}, {TierM, 7, 0x9780aa4fc4fa1858},
		{TierL, 1, 0xb14361165a8102c0}, {TierL, 7, 0x879be198d46ba0ce},
	}
	for _, c := range tiers {
		net, err := ScaleTier(c.tier, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := networkDigest(net); got != c.want {
			t.Errorf("ScaleTier %s seed %d: digest %#x, want %#x", c.tier, c.seed, got, c.want)
		}
	}
}
