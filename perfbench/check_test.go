package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/graph"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
	"roadpart/internal/temporal"
	"roadpart/internal/traffic"
)

// smallCity returns a congested 180-segment city and its dual graph.
func smallCity(t *testing.T) (*roadnet.Network, *graph.Graph) {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 100, TargetSegments: 180, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := setField(net, traffic.FieldConfig{Hotspots: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

func TestCheckRejectsCorruptPartition(t *testing.T) {
	net, g := smallCity(t)
	const k = 4
	res, err := core.Partition(net, core.Config{K: k, Scheme: core.ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r server.PartitionResponse) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := server.PartitionResponse{Assign: res.Assign, K: res.K, KPrime: res.KPrime, Report: res.Report}
	req := request{kind: partitionReq, k: k}
	if err := checkResponse(g, req, encode(good)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}

	// Move one segment into a region it does not touch: that region is
	// no longer connected.
	moved := append([]int(nil), res.Assign...)
	for u := range moved {
		touches := false
		for _, e := range g.Neighbors(u) {
			touches = touches || moved[e.To] == (moved[u]+1)%k
		}
		if !touches {
			moved[u] = (moved[u] + 1) % k
			break
		}
	}
	disconnected := good
	disconnected.Assign = moved
	wrongK := good
	wrongK.K = k + 1
	for name, body := range map[string][]byte{
		"disconnected region": encode(disconnected),
		"wrong k":             encode(wrongK),
		"truncated body":      encode(good)[:100],
		"extra label":         []byte(strings.Replace(string(encode(good)), `"assign":[`, `"assign":[9,`, 1)),
	} {
		if err := checkResponse(g, req, body); err == nil {
			t.Errorf("%s: corrupt response accepted", name)
		}
	}
}

func TestCheckRejectsSweepWithWrongBest(t *testing.T) {
	net, g := smallCity(t)
	p, err := core.NewPipeline(net, core.Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	best, points, err := p.BestKByANS(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	resp := server.SweepResponse{BestK: best}
	for _, pt := range points {
		resp.Points = append(resp.Points, server.SweepPointJSON{K: pt.K, Report: pt.Result.Report})
	}
	req := request{kind: sweepReq, kMin: 2, kMax: 6}
	body, _ := json.Marshal(resp)
	if err := checkResponse(g, req, body); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	for _, pt := range resp.Points {
		if pt.K != best {
			resp.BestK = pt.K
			break
		}
	}
	body, _ = json.Marshal(resp)
	if err := checkResponse(g, req, body); err == nil {
		t.Error("sweep whose best_k is not the ANS minimum accepted")
	}
}

func TestStreamCheckRejectsAlteredFrame(t *testing.T) {
	w, err := newWorkload("stream", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.requests = w.requests[:3]
	want, err := w.replayStream(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]response, len(want))
	for i, o := range want {
		body, err := json.Marshal(server.RepartitionEvent{Frame: frameOf(o)})
		if err != nil {
			t.Fatal(err)
		}
		res[i] = response{status: 200, body: body}
	}
	if _, failed := w.check(res); failed != 0 {
		t.Fatalf("%d replayed frames rejected", failed)
	}
	altered := frameOf(want[1])
	altered.Assign = append([]int(nil), altered.Assign...)
	altered.Assign[0] = altered.Assign[0] + 1
	res[1].body, _ = json.Marshal(server.RepartitionEvent{Frame: altered})
	if _, failed := w.check(res); failed != 1 {
		t.Fatalf("altered frame: %d failures, want 1", failed)
	}
}

func frameOf(o outcome) temporal.Frame {
	return temporal.Frame{Assign: o.Assign, K: o.K, Report: o.Reports[0], ARIvsPrev: math.NaN()}
}
