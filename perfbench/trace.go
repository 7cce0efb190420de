package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"roadpart/internal/obs"
	"roadpart/internal/temporal"
)

// The traced run replays the timed requests with one client, calling
// each layer's public function directly instead of going through HTTP,
// and records a span around every call. A request's root span is
// "request"; its children are named after the layer they time. The
// program's own stage timers, read at the start and end of a span,
// split a span's self time further where one layer calls another
// without a public seam: eigendecompose inside cut.spectral, core.k_sweep
// and temporal.step, and the mining and coarsening stages inside
// core.pipeline. The replay is serial, so those deltas belong to the
// span that read them.

// stageLayer maps each stage timer a span carves out to the layer that
// receives its time.
var stageLayer = map[string]string{
	"eigendecompose":   "eigen.decompose",
	"coarsen":          "coarsen.build",
	"mcg_shortlist":    "supergraph.mine",
	"full_kmeans":      "supergraph.mine",
	"stability_split":  "supergraph.mine",
	"supergraph_merge": "supergraph.mine",
}

// carving lists the spans whose stage deltas are recorded.
var carving = map[string]bool{"cut.spectral": true, "core.pipeline": true, "core.k_sweep": true, "temporal.step": true}

// layers is every layer a span's self time can be attributed to, in
// report order; each becomes a <layer>_ms metric. Where each should move
// an end-to-end metric (elsewhere the prediction is no change):
// server.decode — hot latency and throughput, nearly all of a hit, and
// about 4% of scale; server.encode — cold and stream latency;
// resultcache.key/get — hot latency; roadnet.dual_graph — cold and
// scale, a little; supergraph.mine — cold and stream latency;
// cut.spectral and eigen.decompose — scale latency and throughput;
// metrics.evaluate — cold, scale and stream; core.k_sweep — cold;
// coarsen.build — nothing at the commit that added the benchmark, scale
// once the multilevel threshold falls below the M tier; temporal.step —
// stream latency and throughput.
var layers = []string{
	"server.decode", "server.encode",
	"resultcache.key", "resultcache.get", "resultcache.put",
	"roadnet.dual_graph", "core.pipeline", "core.k_sweep",
	"supergraph.mine", "coarsen.build", "cut.spectral", "eigen.decompose",
	"metrics.evaluate", "temporal.step",
}

// counters are the program's own counters read around each request.
var counters = map[string]*obs.Counter{
	"matvec_csr":      obs.Default().Counter("roadpart_linalg_matvec_total", "", "kind", "csr"),
	"matvec_dense":    obs.Default().Counter("roadpart_linalg_matvec_total", "", "kind", "dense"),
	"kmeans_iter":     obs.Default().Counter("roadpart_kmeans_iterations_total", ""),
	"kmeans_restarts": obs.Default().Counter("roadpart_kmeans_restarts_total", ""),
	"spec_hit":        obs.Default().Counter("roadpart_spectral_cache_total", "", "result", "hit"),
	"spec_miss":       obs.Default().Counter("roadpart_spectral_cache_total", "", "result", "miss"),
	"spec_wait":       obs.Default().Counter("roadpart_spectral_cache_total", "", "result", "wait"),
	"steps_full":      obs.Default().Counter("roadpart_incremental_steps_total", "", "path", temporal.PathFull),
	"regions_reused":  obs.Default().Counter("roadpart_incremental_regions_total", "", "result", "reused"),
	"regions_redone":  obs.Default().Counter("roadpart_incremental_regions_total", "", "result", "recomputed"),
}

type span struct {
	Name   string           `json:"name"`
	Req    int              `json:"req"`
	Parent int              `json:"parent"` // index of the parent span, -1 for a root
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Stages map[string]int64 `json:"stages_ns,omitempty"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced stream check shares the replay code.
type tracer struct {
	t0    time.Time
	req   int
	open  []int
	spans []span
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{Name: name, Req: t.req, Parent: parent}
	if carving[name] {
		s.Stages = make(map[string]int64, len(stageLayer))
		for st := range stageLayer {
			s.Stages[st] = -int64(obs.StageTimer(st).Total())
		}
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	for st := range s.Stages {
		s.Stages[st] += int64(obs.StageTimer(st).Total())
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

func readCounters() map[string]uint64 {
	m := make(map[string]uint64, len(counters))
	for name, c := range counters {
		m[name] = c.Value()
	}
	return m
}

func since(before map[string]uint64) map[string]uint64 {
	m := readCounters()
	for name := range m {
		m[name] -= before[name]
	}
	return m
}

// layerTimes attributes every span's self time (its duration minus its
// children's) to a layer, carving out the stage deltas the span
// recorded. A stage that ran on several goroutines at once can record
// more time than the span's self time; its carve-out is then capped, so
// the layers still sum to the span. It returns per-request layer
// milliseconds, each request's traced wall time in milliseconds, and
// whether every request's layer times fit inside its wall time, which
// fails only if child spans outlast their parent.
func (run *traceRun) layerTimes(n int) ([]map[string]float64, []float64, bool) {
	child := make([]int64, len(run.spans))
	for _, s := range run.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	per := make([]map[string]float64, n)
	wall := make([]float64, n)
	for i := range per {
		per[i] = make(map[string]float64)
	}
	ok := true
	const ms = float64(time.Millisecond)
	for i, s := range run.spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			ok = false
		}
		if s.Parent < 0 {
			wall[s.Req] = float64(s.End-s.Start) / ms
			per[s.Req]["trace.unattributed"] += float64(self) / ms
			continue
		}
		names := make([]string, 0, len(s.Stages))
		for st := range s.Stages {
			names = append(names, st)
		}
		sort.Strings(names)
		for _, st := range names {
			d := min(s.Stages[st], self)
			per[s.Req][stageLayer[st]] += float64(d) / ms
			self -= d
		}
		per[s.Req][s.Name] += float64(self) / ms
	}
	return per, wall, ok
}

// layerMetrics summarizes the traced run as the per-layer metrics:
// each layer's mean self time per request, the program's counters per
// request, and the tracing overhead against the untraced median. It also
// reports whether every request's layer times fit inside its traced
// wall time.
func (run *traceRun) layerMetrics(untracedP50 float64) (map[string]metric, bool) {
	n := len(run.counts)
	per, wall, ok := run.layerTimes(n)
	m := make(map[string]metric)
	mean := func(f func(i int) float64) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += f(i)
		}
		return sum / float64(n)
	}
	for _, l := range append(layers, "trace.unattributed") {
		m[l+"_ms"] = metric{mean(func(i int) float64 { return per[i][l] }), "ms"}
	}
	count := func(name string) float64 { return mean(func(i int) float64 { return float64(run.counts[i][name]) }) }
	total := func(name string) float64 { return count(name) * float64(n) }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	// Facts are averaged over the requests that produced them.
	fact := func(get func(facts) int) float64 {
		var sum, cnt float64
		for _, f := range run.facts {
			if v := get(f); v > 0 {
				sum += float64(v)
				cnt++
			}
		}
		return share(sum, cnt)
	}
	sorted := append([]float64(nil), wall...)
	sort.Float64s(sorted)
	m["server.body_kb"] = metric{float64(run.bodyBytes) / 1024 / float64(n), "kB"}
	m["resultcache.hit_share"] = metric{run.hitShare, "share"}
	m["supergraph.supernodes"] = metric{fact(func(f facts) int { return f.supernodes }), "count"}
	m["cut.k_prime"] = metric{fact(func(f facts) int { return f.kPrime }), "count"}
	m["coarsen.levels"] = metric{fact(func(f facts) int { return f.levels }), "count"}
	m["cut.spectral_cache_hit_share"] = metric{share(total("spec_hit"), total("spec_hit")+total("spec_miss")+total("spec_wait")), "share"}
	m["linalg.matvecs"] = metric{count("matvec_csr") + count("matvec_dense"), "count"}
	m["kmeans.iterations"] = metric{count("kmeans_iter"), "count"}
	m["kmeans.restarts"] = metric{count("kmeans_restarts"), "count"}
	m["temporal.region_reuse_share"] = metric{share(total("regions_reused"), total("regions_reused")+total("regions_redone")), "share"}
	m["temporal.full_steps"] = metric{total("steps_full"), "count"}
	m["trace.requests"] = metric{float64(n), "count"}
	m["trace.wall_ms"] = metric{mean(func(i int) float64 { return wall[i] }), "ms"}
	m["trace.overhead_ms"] = metric{quantile(sorted, 0.5) - untracedP50, "ms"}
	return m, ok
}

// writeSpans writes every span as one JSON line.
func (run *traceRun) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range run.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints the per-layer metrics, one per line.
func printTable(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
