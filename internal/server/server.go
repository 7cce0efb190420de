// Package server exposes the partitioning framework — the paper's
// three-module pipeline of Figure 2 — as a JSON-over-HTTP service, so
// non-Go traffic-management stacks can call it. Endpoints (documented in
// full in docs/API.md):
//
//	POST /v1/partition  — partition a network at a fixed k
//	POST /v1/sweep      — sweep k and report per-k quality (+ the ANS pick)
//	POST /v1/jobs       — submit a partition/sweep as a durable async job (202)
//	GET  /v1/jobs/{id}  — poll a job's state machine; DELETE cancels it
//	GET  /v1/jobs/{id}/result — fetch a done job's body (bit-identical to sync)
//	POST /v1/render     — render a network (and optional assignment) as SVG
//	POST /v1/densities  — advance the density stream (full vector or delta)
//	GET  /v1/watch      — SSE feed of the stream's repartition events
//	GET  /v1/healthz    — liveness
//	GET  /v1/metrics    — Prometheus text exposition (stage timers, counters)
//	GET  /v1/stats      — JSON metrics snapshot + process info
//
// Requests carry the network inline (the roadnet JSON schema). The
// stateless endpoints hold no per-client state; the density stream
// (stream.go) is the deliberate exception — it keeps a temporal.Tracker
// alive across calls so sparse updates repartition incrementally. All
// requests flow through an instrumentation middleware that records
// per-endpoint latency and status-code counters into the internal/obs
// registry, then a panic-recovery net; each compute request runs under a
// deadline-carrying context. When Config.CacheMaxBytes is set, compute
// responses are served from a content-addressed result cache
// (internal/resultcache) consulted BEFORE admission control — a cache
// hit costs no compute slot — and every partition/sweep response then
// carries an X-Roadpart-Cache: hit|miss header. Failure paths and their
// status codes (408/429/499/503) are defined in harden.go and
// docs/API.md.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/jobs"
	"roadpart/internal/metrics"
	"roadpart/internal/peers"
	"roadpart/internal/render"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
)

// maxBodyBytes bounds request bodies (a 100k-segment network with
// densities serializes well under this).
const maxBodyBytes = 64 << 20

// PartitionRequest is the body of POST /v1/partition.
type PartitionRequest struct {
	Network *roadnet.Network `json:"network"`
	K       int              `json:"k"`
	// Scheme is "AG", "NG", "ASG" or "NSG"; empty selects ASG.
	Scheme string `json:"scheme,omitempty"`
	// StabilityEps is the supernode stability threshold (0 = off).
	StabilityEps float64 `json:"stability_eps,omitempty"`
	// Refine applies α-Cut boundary refinement.
	Refine bool   `json:"refine,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Workers bounds the goroutines serving this request's parallel
	// stages; 0 uses the server default. Results are identical for every
	// worker count at the same seed.
	Workers int `json:"workers,omitempty"`
	// Multilevel selects the multilevel coarsening path for this request:
	// "auto", "on" or "off" (docs/SCALING.md). Empty uses the server
	// default (Config.Multilevel, itself defaulting to auto).
	Multilevel string `json:"multilevel,omitempty"`
	// TimeoutMs bounds this request's compute time in milliseconds,
	// capped at the server's MaxTimeout. 0 uses the server default.
	// An exceeded budget returns 408 with the partial work discarded.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// PartitionResponse is the body of a successful partition call.
type PartitionResponse struct {
	Assign []int `json:"assign"`
	K      int   `json:"k"`
	// KPrime is the disjoint partition count before the k′→k reduction.
	KPrime int            `json:"k_prime"`
	Report metrics.Report `json:"report"`
	Timing TimingJSON     `json:"timing"`
	// Elapsed is the wall-clock time of the compute that produced this
	// body. A cached response replays the original compute's value.
	Elapsed string `json:"elapsed"`
}

// TimingJSON is the module breakdown in milliseconds.
type TimingJSON struct {
	Module1Ms float64 `json:"module1_ms"`
	Module2Ms float64 `json:"module2_ms"`
	Module3Ms float64 `json:"module3_ms"`
	TotalMs   float64 `json:"total_ms"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Network *roadnet.Network `json:"network"`
	KMin    int              `json:"k_min"`
	KMax    int              `json:"k_max"`
	Scheme  string           `json:"scheme,omitempty"`
	Seed    uint64           `json:"seed,omitempty"`
	// Workers bounds the goroutines serving this request's parallel
	// stages; 0 uses the server default.
	Workers int `json:"workers,omitempty"`
	// Multilevel selects the multilevel coarsening path: "auto", "on" or
	// "off" (docs/SCALING.md). Empty uses the server default.
	Multilevel string `json:"multilevel,omitempty"`
	// TimeoutMs bounds this request's compute time in milliseconds,
	// capped at the server's MaxTimeout. 0 uses the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SweepResponse reports per-k quality and the ANS-minimum selection.
type SweepResponse struct {
	BestK  int              `json:"best_k"`
	Points []SweepPointJSON `json:"points"`
}

// SweepPointJSON is one k of a sweep.
type SweepPointJSON struct {
	K      int            `json:"k"`
	Report metrics.Report `json:"report"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Config tunes the service.
type Config struct {
	// Workers is the default worker count for the parallel stages of
	// each request (k-sweep fan-out, k-means restarts): 0 selects
	// GOMAXPROCS, 1 forces serial. A request's nonzero workers field
	// overrides it.
	Workers int
	// DefaultTimeout bounds each compute request's pipeline work when
	// the client sends no timeout_ms. 0 imposes no server-side deadline
	// (the request is still cancelled if the client disconnects).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-supplied timeout_ms. 0 selects 10m;
	// "no cap" is intentionally not expressible — an uncapped client
	// deadline would let one request pin a compute slot indefinitely.
	MaxTimeout time.Duration
	// Multilevel is the default multilevel coarsening mode applied when a
	// request leaves its multilevel field empty: "auto" (or empty), "on"
	// or "off" (core.ParseMultilevelMode, docs/SCALING.md).
	Multilevel string
	// MaxInFlight bounds concurrently computing partition/sweep
	// requests. 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are shed with 429. Meaningful only with MaxInFlight > 0.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed with 503. 0 selects 5s; "shed immediately when
	// saturated" is expressed with MaxQueue = 0, so a literal zero wait
	// is intentionally not reachable through this field.
	QueueWait time.Duration
	// CacheMaxBytes bounds the in-memory content-addressed result cache
	// over partition/sweep response bodies. 0 disables caching entirely
	// — the zero Config serves exactly as it did before the cache
	// existed; this is the field's meaningful zero, so no sentinel is
	// needed. (cmd/roadpartd defaults its flag to 256 MiB.)
	CacheMaxBytes int64
	// CacheDir, when non-empty, persists cached results as
	// roadpart-cache/v1 snapshot files and warms the cache from them at
	// startup, so a restarted daemon keeps its hot set. Meaningful only
	// with CacheMaxBytes > 0.
	CacheDir string
	// JobWorkers bounds concurrently executing async-job attempts
	// (POST /v1/jobs). 0 selects the internal/jobs default (2). Job
	// attempts additionally pass through the same admission controller
	// as synchronous requests, so the two paths cannot oversubscribe
	// MaxInFlight between them.
	JobWorkers int
	// JobQueueDepth bounds active (non-terminal) async jobs; beyond it
	// submissions are rejected with 429. 0 selects the default (64).
	JobQueueDepth int
	// JobMaxAttempts is the per-job attempt budget before the terminal
	// dead-letter state. 0 selects the default (3).
	JobMaxAttempts int
	// JobAttemptTimeout bounds each job attempt's compute; 0 falls back
	// to DefaultTimeout (and to no deadline when that is also 0).
	JobAttemptTimeout time.Duration
	// JobRetryBase and JobRetryMax shape the capped exponential backoff
	// between job attempts (zeroes select 1s base, 1m cap). The jitter
	// is deterministic per job fingerprint — see internal/jobs.Backoff.
	JobRetryBase time.Duration
	JobRetryMax  time.Duration
	// JobDir, when non-empty, holds the roadpart-jobs/v1 write-ahead
	// journal: submissions and transitions are journaled, and a
	// restarted daemon replays incomplete jobs. Empty serves jobs
	// memory-only (a restart forgets them).
	JobDir string
	// JobNoSync skips the per-record journal fsync (tests; a power loss
	// may drop the trailing records).
	JobNoSync bool
	// Self is this daemon's own advertised base URL (http://host:port).
	// Setting it (or Peers) enables the sharded multi-daemon mode: every
	// content-addressed request is routed to the shard whose rendezvous
	// position owns its fingerprint (docs/DISTRIBUTED.md). Empty with an
	// empty Peers serves single-node, exactly as before peering existed.
	Self string
	// Peers lists the other shards' base URLs (Self is folded in
	// automatically, so the same list can be deployed to every shard).
	// All shards must agree on the membership — disagreement degrades to
	// extra hops and duplicated cache entries, never to wrong answers.
	Peers []string
	// PeerTimeout bounds one forwarded exchange (dial through response).
	// 0 selects MaxTimeout plus headroom, so a forwarded request
	// outlives the owner's longest allowed compute.
	PeerTimeout time.Duration
}

// service carries the server configuration into the handlers.
type service struct {
	cfg        Config
	slots      chan struct{}      // in-flight tokens; nil when admission is off
	queued     atomic.Int64       // requests waiting for a slot
	cache      *resultcache.Cache // nil when caching is off
	stream     stream             // the density stream (daemon mode)
	hub        *watchHub          // /v1/watch fan-out
	jobs       *jobs.Manager      // durable async jobs (always on)
	lat        latEWMA            // observed compute latency → Retry-After hints
	ring       *peers.Ring        // shard membership; nil when peering is off
	peerClient *peers.Client      // bounded transport for the forwarding hop
}

// Service is the HTTP handler together with its lifecycle: daemons that
// shut down gracefully call Close so in-flight jobs checkpoint into the
// journal instead of being abandoned mid-attempt.
type Service struct {
	http.Handler
	svc *service
}

// NewService builds the service and exposes its lifecycle.
func NewService(cfg Config) (*Service, error) {
	s, err := newService(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{Handler: s.handler(), svc: s}, nil
}

// Close drains the async-job subsystem: new submissions are refused
// with 503, retry timers stop, and interrupted attempts are journaled
// back to queued so a restarted daemon resumes them with a full budget.
// ctx bounds the wait for in-flight attempts.
func (sv *Service) Close(ctx context.Context) error {
	return sv.svc.jobs.Close(ctx)
}

func newService(cfg Config) (*service, error) {
	s := &service{cfg: cfg, hub: newWatchHub()}
	ring, pc, err := newPeering(cfg, s.maxTimeout)
	if err != nil {
		return nil, err
	}
	s.ring, s.peerClient = ring, pc
	if cfg.MaxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.CacheMaxBytes > 0 {
		c, err := resultcache.New(resultcache.Config{MaxBytes: cfg.CacheMaxBytes, Dir: cfg.CacheDir})
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	attemptTimeout := cfg.JobAttemptTimeout
	if attemptTimeout <= 0 {
		attemptTimeout = cfg.DefaultTimeout
	}
	m, err := jobs.Open(jobs.Config{
		Workers:        cfg.JobWorkers,
		QueueDepth:     cfg.JobQueueDepth,
		MaxAttempts:    cfg.JobMaxAttempts,
		AttemptTimeout: attemptTimeout,
		Retry:          jobs.Backoff{Base: cfg.JobRetryBase, Max: cfg.JobRetryMax},
		Dir:            cfg.JobDir,
		NoSync:         cfg.JobNoSync,
		Hooks:          testJobHooks,
	}, jobs.RunnerFunc(s.runJob))
	if err != nil {
		return nil, err
	}
	s.jobs = m
	return s, nil
}

// handler assembles the route table and middleware chain:
// instrument(recoverPanics(mux)). Accounting sees every request
// including recovered panics; admission control is no longer a
// middleware — each compute handler acquires a slot (s.acquire) only
// after its cache lookup misses, so cached responses never queue.
func (s *service) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", handleHealth)
	mux.HandleFunc("/v1/partition", s.handleKeyed(resultcache.OpPartition))
	mux.HandleFunc("/v1/sweep", s.handleKeyed(resultcache.OpSweep))
	mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJobItem)
	mux.HandleFunc("/v1/render", handleRender)
	mux.HandleFunc("/v1/densities", s.handleDensities)
	mux.HandleFunc("/v1/watch", s.handleWatch)
	mux.HandleFunc("/v1/metrics", handleMetrics)
	mux.HandleFunc("/v1/stats", handleStats)
	return instrument(recoverPanics(mux))
}

// workers resolves a request-level override against the server default.
func (s *service) workers(req int) int {
	if req != 0 {
		return req
	}
	return s.cfg.Workers
}

// RenderRequest is the body of POST /v1/render: a network plus an
// optional assignment. The response is image/svg+xml — partitions when an
// assignment is given, densities otherwise.
type RenderRequest struct {
	Network *roadnet.Network `json:"network"`
	Assign  []int            `json:"assign,omitempty"`
	Title   string           `json:"title,omitempty"`
}

func handleRender(w http.ResponseWriter, r *http.Request) {
	var req RenderRequest
	if _, ok := readRequest(w, r, &req); !ok {
		return
	}
	if req.Network == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing network"))
		return
	}
	if err := req.Network.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Assign != nil && len(req.Assign) != len(req.Network.Segments) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("%d assignments for %d segments", len(req.Assign), len(req.Network.Segments)))
		return
	}
	// Render into memory first so failures still produce a clean error
	// response instead of a truncated SVG.
	var buf bytes.Buffer
	var err error
	if req.Assign != nil {
		err = render.Partitions(&buf, req.Network, req.Assign, render.Options{Title: req.Title})
	} else {
		err = render.Densities(&buf, req.Network, render.Options{Title: req.Title})
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// keyed is one resolved partition or sweep document: the cache identity
// its body is stored under, the client's timeout and the compute that
// produces the serialized response. Every entry point — the synchronous
// endpoints, job submit, job replay and the job-result fallback — turns
// its document into a keyed through resolve and runs it through run.
// The synchronous endpoints also set alias, the digest of the raw body
// the document was decoded from.
type keyed struct {
	key       resultcache.Key
	tag       uint64
	alias     resultcache.Alias
	timeoutMs int64
	compute   func(context.Context) ([]byte, error)
}

// newDoc returns an empty request document for a resultcache op, or nil
// when the op is neither partition nor sweep.
func newDoc(op string) interface{} {
	switch op {
	case resultcache.OpPartition:
		return &PartitionRequest{}
	case resultcache.OpSweep:
		return &SweepRequest{}
	}
	return nil
}

// resolve validates a decoded *PartitionRequest or *SweepRequest and
// fingerprints it. The key is hashed here once and reused for both peer
// routing and the cache; the tag — the network's (structure, density)
// fingerprint — lets a density-stream update invalidate exactly the
// entries its step made stale.
func (s *service) resolve(doc interface{}) (keyed, error) {
	switch d := doc.(type) {
	case *PartitionRequest:
		cfg, err := s.partitionConfig(d)
		if err != nil {
			return keyed{}, err
		}
		return keyed{
			key:       resultcache.PartitionKey(d.Network, cfg),
			tag:       resultcache.NetworkTag(d.Network),
			timeoutMs: d.TimeoutMs,
			compute: func(ctx context.Context) ([]byte, error) {
				return s.computePartition(ctx, d.Network, cfg)
			},
		}, nil
	case *SweepRequest:
		// The requested range (after defaulting) is the cacheable
		// identity; the sweep's clamp to the pipeline's MaxK is a
		// deterministic function of the same inputs, so hashing the
		// pre-clamp range is sound.
		cfg, kMin, kMax, err := s.sweepConfig(d)
		if err != nil {
			return keyed{}, err
		}
		return keyed{
			key:       resultcache.SweepKey(d.Network, cfg, kMin, kMax),
			tag:       resultcache.NetworkTag(d.Network),
			timeoutMs: d.TimeoutMs,
			compute: func(ctx context.Context) ([]byte, error) {
				return s.computeSweep(ctx, d.Network, cfg, kMin, kMax)
			},
		}, nil
	default:
		return keyed{}, fmt.Errorf("unsupported request document %T", doc)
	}
}

// run produces k's body. It is the only place that knows whether the
// result cache is on: without it the compute runs directly and state is
// ""; with it the cache replays, coalesces or computes, and state is the
// CacheHeader value ("hit" or "miss").
func (s *service) run(ctx context.Context, k keyed) (body []byte, state string, err error) {
	if s.cache == nil {
		body, err = k.compute(ctx)
		return body, "", err
	}
	body, cached, err := s.cache.GetOrCompute(ctx, k.key, k.tag, k.compute)
	return body, cacheState(cached), err
}

// serve runs k under the request's deadline and writes the outcome:
// the body with its cache state, or the failure's 408/422/429/499/503.
// A served body whose entry is resident becomes the entry's alias.
func (s *service) serve(w http.ResponseWriter, r *http.Request, k keyed) {
	ctx, cancel, budget := s.requestContext(r, k.timeoutMs)
	defer cancel()
	// Copied out so that k, whose compute closure holds the decoded
	// network, is dead while run computes: the pipeline needs only the
	// dual graph after its first stage, and reading k after run would
	// keep the network live through the eigensolve (+1.2 MiB of peak
	// heap on perfbench scale).
	key, alias := k.key, k.alias
	body, state, err := s.run(ctx, k)
	if err != nil {
		s.writeComputeFailure(w, budget, err)
		return
	}
	if state != "" {
		s.cache.SetAlias(key, alias)
		w.Header().Set(CacheHeader, state)
	}
	writeJSONBody(w, body)
}

// handleKeyed serves POST /v1/partition and POST /v1/sweep: read the
// body, and unless serveAlias answers it, decode the op's document,
// resolve it, route it to the fingerprint's owner (an unreachable owner
// falls through to the local path) and serve it.
func (s *service) handleKeyed(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, ok := readRaw(w, r)
		if !ok {
			return
		}
		var alias resultcache.Alias
		if s.cache != nil {
			alias = s.cache.Alias(op, raw)
			if s.serveAlias(w, r, alias, raw) {
				return
			}
		}
		doc := newDoc(op)
		if !decodeRaw(w, raw, doc) {
			return
		}
		k, err := s.resolve(doc)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		k.alias = alias
		if s.forwardKeyed(w, r, k.key.Sum, raw) {
			return
		}
		s.markShard(w)
		s.serve(w, r, k)
	}
}

// serveAlias answers a body whose exact bytes an earlier request
// decoded, validated and resolved to a still-resident entry: it routes
// and serves that entry as a hit without decoding the body again. It
// reports false, having written nothing, when the request must take the
// decode path.
func (s *service) serveAlias(w http.ResponseWriter, r *http.Request, alias resultcache.Alias, raw []byte) bool {
	key, ok := s.cache.Aliased(alias)
	if !ok {
		return false
	}
	if s.forwardKeyed(w, r, key.Sum, raw) {
		return true
	}
	body, ok := s.cache.GetAlias(alias)
	if !ok {
		return false
	}
	s.markShard(w)
	w.Header().Set(CacheHeader, cacheState(true))
	writeJSONBody(w, body)
	return true
}

// computePartition runs the full pipeline under an admission slot and
// returns the serialized PartitionResponse — the exact bytes the cache
// stores and every later hit replays.
func (s *service) computePartition(ctx context.Context, net *roadnet.Network, cfg core.Config) ([]byte, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	t0 := time.Now()
	res, err := core.PartitionCtx(ctx, net, cfg)
	if err != nil {
		return nil, err
	}
	s.lat.observe(time.Since(t0))
	return json.Marshal(NewPartitionResponse(res, time.Since(t0)))
}

// computeSweep runs modules 1–2 once and the k-sweep under an admission
// slot, returning the serialized SweepResponse. The sweep clamps kMax to
// the pipeline's MaxK and fails, naming that cap, when kMin is above it.
func (s *service) computeSweep(ctx context.Context, net *roadnet.Network, cfg core.Config, kMin, kMax int) ([]byte, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	t0 := time.Now()
	p, err := core.NewPipelineCtx(ctx, net, cfg)
	if err != nil {
		return nil, err
	}
	best, sweep, err := p.BestKByANSCtx(ctx, kMin, kMax)
	if err != nil {
		return nil, err
	}
	s.lat.observe(time.Since(t0))
	return json.Marshal(NewSweepResponse(best, sweep))
}

// NewPartitionResponse builds the partition body from a pipeline result
// and the wall-clock time of the compute that produced it. It is the one
// constructor of that body: the daemon serves it and cmd/roadpart writes
// it to a shared -cache-dir, so either binary's snapshot is a byte-for-
// byte hit for the other.
func NewPartitionResponse(res *core.Result, elapsed time.Duration) PartitionResponse {
	return PartitionResponse{
		Assign: res.Assign,
		K:      res.K,
		KPrime: res.KPrime,
		Report: res.Report,
		Timing: TimingJSON{
			Module1Ms: ms(res.Timing.Module1),
			Module2Ms: ms(res.Timing.Module2),
			Module3Ms: ms(res.Timing.Module3),
			TotalMs:   ms(res.Timing.Total),
		},
		Elapsed: elapsed.String(),
	}
}

// NewSweepResponse builds the sweep body from a k-sweep's ANS pick and
// per-k points; like NewPartitionResponse, it is shared with cmd/roadpart.
func NewSweepResponse(best int, sweep []core.SweepPoint) SweepResponse {
	resp := SweepResponse{BestK: best}
	for _, pt := range sweep {
		resp.Points = append(resp.Points, SweepPointJSON{K: pt.K, Report: pt.Result.Report})
	}
	return resp
}

// parseScheme is core.ParseScheme under the API's default: an empty
// scheme selects ASG.
func parseScheme(name string) (core.Scheme, error) {
	if name == "" {
		return core.ASG, nil
	}
	return core.ParseScheme(name)
}

// CacheHeader is the response header reporting how a compute endpoint
// answered: "hit" (served from the result cache, including coalescing
// onto another request's in-flight compute) or "miss" (computed here).
// Absent when caching is disabled and on error responses.
const CacheHeader = "X-Roadpart-Cache"

// cacheState maps resultcache's cached flag to the header value.
func cacheState(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// allow enforces the single method a route supports, answering anything
// else with 405 and the Allow header RFC 9110 § 15.5.6 requires.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBody writes a pre-serialized 200 response. The framing —
// body then '\n' — reproduces json.Encoder.Encode exactly (Encode is
// Marshal plus a trailing newline), so a cached body is byte-identical
// on the wire to the writeJSON output it replaced.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
