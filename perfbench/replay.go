package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"roadpart/internal/coarsen"
	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
	"roadpart/internal/supergraph"
	"roadpart/internal/temporal"
)

// replayer carries the state one replay shares across requests.
type replayer struct {
	ctx   context.Context
	tr    *tracer
	cache *resultcache.Cache
	seen  facts // what the current request built, reset by the caller
}

// facts are the sizes one replayed request's layers produced; zero
// where the layer did not run.
type facts struct {
	supernodes, kPrime, levels int
}

// traceRun is the outcome of a traced replay.
type traceRun struct {
	spans []span
	// Per request: the counter deltas and the facts the replay saw.
	counts     []map[string]uint64
	facts      []facts
	bodyBytes  int
	hitShare   float64
	mismatched int
}

// replay runs the traced replay of the timed requests and checks that
// every replayed output equals the one the service returned.
func (w *workload) replay(res []response, outs []outcome, prepared []response) (*traceRun, error) {
	tr := &tracer{t0: time.Now()}
	run := &traceRun{counts: make([]map[string]uint64, len(w.requests)), facts: make([]facts, len(w.requests))}
	lookups, hits := 0, 0
	for _, r := range res {
		if r.cache != "" {
			lookups++
			if r.cache == "hit" {
				hits++
			}
		}
	}
	if lookups > 0 {
		run.hitShare = float64(hits) / float64(lookups)
	}
	for _, r := range w.requests {
		run.bodyBytes += len(r.body)
	}

	var replayed []outcome
	if w.name == "stream" {
		var err error
		if replayed, err = w.replayStream(tr, run); err != nil {
			return nil, err
		}
	} else {
		cache, err := resultcache.New(resultcache.Config{MaxBytes: serviceConfig().CacheMaxBytes})
		if err != nil {
			return nil, err
		}
		rp := &replayer{ctx: context.Background(), cache: cache}
		// Set-up, untraced: the hot working set goes into the cache as
		// the service returned it; cold and scale replay their warm-up.
		for i, r := range w.prepare {
			if w.name == "hot" {
				key, err := rp.key(r)
				if err != nil {
					return nil, err
				}
				cache.Put(key, prepared[i].body)
			} else if _, err := rp.request(r); err != nil {
				return nil, err
			}
		}
		rp.tr = tr
		replayed = make([]outcome, len(w.requests))
		for i, r := range w.requests {
			tr.req = i
			rp.seen = facts{}
			before := readCounters()
			tr.begin("request")
			body, err := rp.request(r)
			tr.end()
			run.counts[i] = since(before)
			run.facts[i] = rp.seen
			if err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", i, err)
			}
			if replayed[i], err = parseOutcome(r.kind, body); err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", i, err)
			}
		}
	}
	run.spans = tr.spans
	for i := range outs {
		if outs[i].Reports != nil && !sameOutcome(outs[i], replayed[i]) {
			run.mismatched++
			fmt.Fprintf(os.Stderr, "perfbench: request %d: traced replay differs from the service's response\n", i)
		}
	}
	return run, nil
}

// decodeStrict decodes a request body as the service does: unknown
// fields are an error.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// config resolves a request's scheme, seed, worker count and multilevel
// mode the way the service does for an empty workers field and
// roadpartd's default multilevel mode.
func config(scheme string, seed uint64, workers int, multilevel string) (core.Config, error) {
	cfg := core.Config{Seed: seed, Workers: workers}
	switch scheme {
	case "", "ASG":
		cfg.Scheme = core.ASG
	case "AG":
		cfg.Scheme = core.AG
	case "NG":
		cfg.Scheme = core.NG
	case "NSG":
		cfg.Scheme = core.NSG
	default:
		return cfg, fmt.Errorf("unknown scheme %q", scheme)
	}
	if multilevel == "" {
		multilevel = serviceConfig().Multilevel
	}
	var err error
	cfg.Multilevel, err = core.ParseMultilevelMode(multilevel)
	return cfg, err
}

// key decodes a partition or sweep body and returns its cache key.
func (rp *replayer) key(r request) (resultcache.Key, error) {
	if r.kind == sweepReq {
		req, cfg, kMin, kMax, err := decodeSweep(r.body)
		if err != nil {
			return resultcache.Key{}, err
		}
		return resultcache.SweepKey(req.Network, cfg, kMin, kMax), nil
	}
	req, cfg, err := decodePartition(r.body)
	if err != nil {
		return resultcache.Key{}, err
	}
	return resultcache.PartitionKey(req.Network, cfg), nil
}

func decodePartition(body []byte) (*server.PartitionRequest, core.Config, error) {
	var req server.PartitionRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, core.Config{}, err
	}
	if req.Network == nil {
		return nil, core.Config{}, fmt.Errorf("missing network")
	}
	cfg, err := config(req.Scheme, req.Seed, req.Workers, req.Multilevel)
	cfg.K, cfg.StabilityEps, cfg.Refine = req.K, req.StabilityEps, req.Refine
	if err == nil {
		err = req.Network.Validate()
	}
	return &req, cfg, err
}

func decodeSweep(body []byte) (*server.SweepRequest, core.Config, int, int, error) {
	var req server.SweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, core.Config{}, 0, 0, err
	}
	if req.Network == nil {
		return nil, core.Config{}, 0, 0, fmt.Errorf("missing network")
	}
	cfg, err := config(req.Scheme, req.Seed, req.Workers, req.Multilevel)
	if err == nil {
		err = req.Network.Validate()
	}
	kMin, kMax := req.KMin, req.KMax
	if kMin == 0 {
		kMin = 2
	}
	if kMax == 0 {
		kMax = 10
	}
	return &req, cfg, kMin, kMax, err
}

// request replays one partition or sweep and returns the response body.
func (rp *replayer) request(r request) ([]byte, error) {
	if r.kind == sweepReq {
		return rp.sweep(r.body)
	}
	return rp.partition(r.body)
}

// lookup times the cache key and read.
func (rp *replayer) lookup(key func() resultcache.Key) (resultcache.Key, []byte, bool) {
	var k resultcache.Key
	var body []byte
	var hit bool
	_ = rp.tr.do("resultcache.key", func() error { k = key(); return nil })
	_ = rp.tr.do("resultcache.get", func() error { body, hit = rp.cache.Get(k); return nil })
	return k, body, hit
}

// roadGraph is module 1: the dual graph and the density vector.
func (rp *replayer) roadGraph(net *roadnet.Network) (*graph.Graph, []float64, error) {
	var g *graph.Graph
	var f []float64
	err := rp.tr.do("roadnet.dual_graph", func() error {
		var err error
		g, err = roadnet.DualGraph(net)
		f = net.Densities()
		return err
	})
	return g, f, err
}

// encode marshals a response and stores it in the cache.
func (rp *replayer) encode(key resultcache.Key, v any) ([]byte, error) {
	var body []byte
	if err := rp.tr.do("server.encode", func() error {
		var err error
		body, err = json.Marshal(v)
		return err
	}); err != nil {
		return nil, err
	}
	_ = rp.tr.do("resultcache.put", func() error { rp.cache.Put(key, body); return nil })
	return body, nil
}

// partition replays POST /v1/partition through the layers core.Partition
// composes: module 1, module 2 (supergraph schemes) or the similarity
// reweighting (direct schemes), the multilevel hierarchy when the
// module-3 graph reaches the threshold, the spectral cut with its
// connectivity repair, and the evaluation.
func (rp *replayer) partition(body []byte) ([]byte, error) {
	var req *server.PartitionRequest
	var cfg core.Config
	if err := rp.tr.do("server.decode", func() error {
		var err error
		req, cfg, err = decodePartition(body)
		return err
	}); err != nil {
		return nil, err
	}
	if cfg.Refine {
		return nil, fmt.Errorf("refine is not replayed")
	}
	key, cached, hit := rp.lookup(func() resultcache.Key { return resultcache.PartitionKey(req.Network, cfg) })
	if hit {
		return cached, nil
	}
	g, f, err := rp.roadGraph(req.Network)
	if err != nil {
		return nil, err
	}
	var sg *supergraph.Supergraph
	g3, f3 := g, f
	if cfg.Scheme == core.ASG || cfg.Scheme == core.NSG {
		err = rp.tr.do("supergraph.mine", func() error {
			var err error
			sg, err = supergraph.MineCtx(rp.ctx, g, f, supergraph.MineOptions{
				EpsTheta:     cfg.EpsTheta,
				EpsThetaFrac: cfg.EpsThetaFrac,
				KappaMax:     cfg.KappaMax,
				SampleSize:   cfg.SampleSize,
				StabilityEps: cfg.StabilityEps,
				Weighting:    cfg.Weighting,
				Seed:         cfg.Seed,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		g3, f3 = sg.Links, sg.Features()
		rp.seen.supernodes = len(sg.Nodes)
	} else {
		_ = rp.tr.do("core.pipeline", func() error { g3 = core.SimilarityWeighted(g, f); return nil })
	}
	method := cut.MethodNCut
	if cfg.Scheme == core.AG || cfg.Scheme == core.ASG {
		method = cut.MethodAlphaCut
	}
	opts := cut.Options{Seed: cfg.Seed, Restarts: cfg.Restarts, DenseCutoff: cfg.DenseCutoff, Workers: cfg.Workers, ColdWiden: cfg.ColdWiden}
	norm := cfg.Normalized()
	var spec *cut.Spectral
	if norm.Multilevel == core.MultilevelOn ||
		(norm.Multilevel == core.MultilevelAuto && g3.N() >= norm.MultilevelThreshold) {
		var hier *coarsen.Hierarchy
		if err := rp.tr.do("coarsen.build", func() error {
			var err error
			hier, err = coarsen.Build(rp.ctx, g3, f3, coarsen.Options{Seed: int64(cfg.Seed)})
			return err
		}); err != nil {
			return nil, err
		}
		rp.seen.levels = hier.Levels()
		spec = cut.NewSpectralLevel(hier, method, opts)
	} else {
		spec = cut.NewSpectral(g3, method, opts)
	}
	var assign []int
	var k, kPrime int
	if err := rp.tr.do("cut.spectral", func() error {
		if sg != nil && cfg.K > len(sg.Nodes) {
			return fmt.Errorf("k=%d exceeds %d supernodes", cfg.K, len(sg.Nodes))
		}
		res, err := spec.PartitionCtx(rp.ctx, cfg.K)
		if err != nil {
			return err
		}
		assign, kPrime = res.Assign, res.KPrime
		if sg != nil {
			if assign, err = sg.ExpandAssign(res.Assign); err != nil {
				return err
			}
		}
		assign, k, err = cut.RepairConnectivity(g, f, assign, cfg.K)
		return err
	}); err != nil {
		return nil, err
	}
	rp.seen.kPrime = kPrime
	var rep metrics.Report
	if err := rp.tr.do("metrics.evaluate", func() error {
		var err error
		rep, err = metrics.Evaluate(f, assign, g)
		return err
	}); err != nil {
		return nil, err
	}
	return rp.encode(key, server.PartitionResponse{Assign: assign, K: k, KPrime: kPrime, Report: rep})
}

// sweep replays POST /v1/sweep: modules 1–2 once through
// core.NewPipelineFromGraphCtx, then Pipeline.BestKByANSCtx over the
// range clamped to the supernode count, as the service does.
func (rp *replayer) sweep(body []byte) ([]byte, error) {
	var req *server.SweepRequest
	var cfg core.Config
	var kMin, kMax int
	if err := rp.tr.do("server.decode", func() error {
		var err error
		req, cfg, kMin, kMax, err = decodeSweep(body)
		return err
	}); err != nil {
		return nil, err
	}
	key, cached, hit := rp.lookup(func() resultcache.Key { return resultcache.SweepKey(req.Network, cfg, kMin, kMax) })
	if hit {
		return cached, nil
	}
	g, f, err := rp.roadGraph(req.Network)
	if err != nil {
		return nil, err
	}
	var p *core.Pipeline
	if err := rp.tr.do("core.pipeline", func() error {
		var err error
		p, err = core.NewPipelineFromGraphCtx(rp.ctx, g, f, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if p.SG != nil {
		rp.seen.supernodes = len(p.SG.Nodes)
		kMax = min(kMax, len(p.SG.Nodes))
	}
	rp.seen.levels = p.MultilevelLevels()
	if kMax < kMin {
		return nil, fmt.Errorf("network supports no k in [%d,%d]", req.KMin, req.KMax)
	}
	var best int
	var points []core.SweepPoint
	if err := rp.tr.do("core.k_sweep", func() error {
		var err error
		best, points, err = p.BestKByANSCtx(rp.ctx, kMin, kMax)
		return err
	}); err != nil {
		return nil, err
	}
	resp := server.SweepResponse{BestK: best}
	for _, pt := range points {
		resp.Points = append(resp.Points, server.SweepPointJSON{K: pt.K, Report: pt.Result.Report})
	}
	return rp.encode(key, resp)
}

// replayStream replays the density stream on a temporal.Tracker: the
// seed frame, then every delta the timed phase posted, configured as
// the service configures it for the seed-frame request. With a nil
// tracer and run it is the untraced check.
func (w *workload) replayStream(tr *tracer, run *traceRun) ([]outcome, error) {
	ctx := context.Background()
	t, err := temporal.NewTracker(w.net, temporal.ModeDistributed, temporal.Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		return nil, err
	}
	if _, err := t.Step(ctx, w.seedFrame); err != nil {
		return nil, err
	}
	outs := make([]outcome, len(w.requests))
	for i, r := range w.requests {
		var before map[string]uint64
		if tr != nil {
			tr.req = i
			before = readCounters()
		}
		tr.begin("request")
		var req server.DensitiesRequest
		var fr temporal.Frame
		err := tr.do("server.decode", func() error {
			if err := decodeStrict(r.body, &req); err != nil {
				return err
			}
			return req.Updates.Validate(t.Segments())
		})
		if err == nil {
			err = tr.do("temporal.step", func() error {
				var err error
				fr, err = t.ApplyDelta(ctx, req.Updates)
				return err
			})
		}
		if err == nil {
			err = tr.do("server.encode", func() error {
				structure, density := t.Fingerprints()
				_, err := json.Marshal(server.RepartitionEvent{
					Seq:       i + 2, // the seed frame is event 1
					Structure: fmt.Sprintf("%016x", structure),
					Density:   fmt.Sprintf("%016x", density),
					Frame:     fr,
				})
				return err
			})
		}
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("stream step %d: %w", i, err)
		}
		if run != nil {
			run.counts[i] = since(before)
		}
		outs[i] = outcome{Assign: fr.Assign, K: fr.K, Reports: []metrics.Report{fr.Report}, ANS: fr.Report.ANS}
	}
	return outs, nil
}
