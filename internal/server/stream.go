package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"roadpart/internal/obs"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
	"roadpart/internal/temporal"
)

// This file is the daemon's streaming mode: POST /v1/densities feeds a
// long-lived temporal.Tracker full density vectors or sparse deltas, and
// GET /v1/watch is a Server-Sent Events feed of the repartition frames
// those updates produce. Where /v1/partition is stateless
// request/response, the density stream holds the network, its dual
// graph, the seed partition and the per-region caches across calls, so
// a small delta costs only the regions it touches (see
// docs/ARCHITECTURE.md § Streaming dataflow).

// Streaming observability. The tracker itself counts compute paths
// (roadpart_incremental_steps_total); these cover the transport.
var (
	watchSubscribers = obs.Default().Gauge("roadpart_watch_subscribers",
		"SSE clients currently connected to /v1/watch.")
	watchDropped = obs.Default().Counter("roadpart_watch_events_dropped_total",
		"Repartition events not delivered to a slow /v1/watch subscriber (its buffer was full; the client still sees every later event).")
)

// DensitiesRequest is the body of POST /v1/densities. The first call
// must carry the network plus a full densities vector; it establishes
// the stream and fixes the partitioning configuration. Later calls send
// either a full densities vector or a sparse updates list. A call that
// carries a network replaces the stream wholesale (the previous
// tracker's caches are discarded).
type DensitiesRequest struct {
	// Network establishes (or replaces) the streamed network. Required
	// on the first call; configuration fields below are read only
	// together with it.
	Network *roadnet.Network `json:"network,omitempty"`
	// Scheme is "AG", "NG", "ASG" or "NSG"; empty selects ASG.
	Scheme string `json:"scheme,omitempty"`
	// Mode is "distributed" (default: the seed frame partitions
	// globally, later frames re-split its regions) or "global".
	Mode string `json:"mode,omitempty"`
	// K fixes the global partition count; 0 selects it by the ANS
	// minimum.
	K    int    `json:"k,omitempty"`
	Seed uint64 `json:"seed,omitempty"`

	// Densities is a full per-segment density vector. Exactly one of
	// Densities and Updates must be present.
	Densities []float64 `json:"densities,omitempty"`
	// Updates is a sparse density delta applied to the current vector.
	Updates roadnet.DensityDelta `json:"updates,omitempty"`
	// TimeoutMs bounds this step's compute, as on /v1/partition.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// RepartitionEvent is the document POST /v1/densities returns and
// GET /v1/watch pushes (as SSE event "repartition") for every frame the
// stream produces. Structure and Density are the %016x fingerprints of
// the network state the frame was computed from — the same pair that
// tags result-cache entries.
type RepartitionEvent struct {
	Seq       int            `json:"seq"`
	Structure string         `json:"structure"`
	Density   string         `json:"density"`
	Frame     temporal.Frame `json:"frame"`
}

// stream is the service's single density stream: one tracker at a time,
// steps serialized by the mutex (the stream is inherently ordered — two
// racing updates have no meaningful concurrent interleaving).
type stream struct {
	mu  sync.Mutex
	tr  *temporal.Tracker
	seq int // monotonically increasing across stream replacements
}

// watchHub fans repartition events out to SSE subscribers. Publishing
// never blocks: a subscriber whose buffer is full misses that event
// (counted) and resumes with the next one — a stalled client cannot
// stall the compute path.
type watchHub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
	last []byte // most recent event, replayed to new subscribers
}

func newWatchHub() *watchHub {
	return &watchHub{subs: make(map[chan []byte]struct{})}
}

func (h *watchHub) publish(doc []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.last = doc
	for ch := range h.subs {
		select {
		case ch <- doc:
		default:
			watchDropped.Inc()
		}
	}
}

// subscribe registers a new subscriber and returns its channel, the
// last published event (nil when none yet) and an idempotent cancel.
func (h *watchHub) subscribe() (<-chan []byte, []byte, func()) {
	ch := make(chan []byte, 16)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	last := h.last
	h.mu.Unlock()
	watchSubscribers.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, ch)
			h.mu.Unlock()
			watchSubscribers.Add(-1)
		})
	}
	return ch, last, cancel
}

// buildMode maps the request's mode string to a temporal.Mode.
func buildMode(mode string) (temporal.Mode, error) {
	switch mode {
	case "", "distributed":
		return temporal.ModeDistributed, nil
	case "global":
		return temporal.ModeGlobal, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want distributed or global)", mode)
	}
}

// handleDensities advances the density stream by one step. Validation
// errors name the offending field (satellite of the streaming work: a
// wrong-length vector or out-of-range update index must say which field
// and which bound), compute errors follow the 408/429/499/503 mapping
// every compute endpoint shares.
func (s *service) handleDensities(w http.ResponseWriter, r *http.Request) {
	var req DensitiesRequest
	raw, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	// The density stream is a stateful singleton: every step must land
	// on the same tracker, so the whole resource lives on the ring owner
	// of streamRouteKey. No local fallback — a step applied to a second
	// tracker would silently fork the stream — so an unreachable home is
	// a 502 and the client retries the same, still-consistent resource.
	if home := s.streamHome(r); home != "" {
		if !s.proxy(w, r, home, raw) {
			writeErr(w, http.StatusBadGateway,
				fmt.Errorf("density-stream home %s unreachable", home))
		}
		releaseBody(raw)
		return
	}
	s.markShard(w)
	if req.Densities != nil && req.Updates != nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("densities and updates are mutually exclusive; send one per call"))
		return
	}
	if req.Densities == nil && req.Updates == nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("densities or updates: exactly one is required"))
		return
	}
	ctx, cancel, budget := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	s.stream.mu.Lock()
	defer s.stream.mu.Unlock()
	if req.Network != nil {
		if err := req.Network.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		scheme, err := parseScheme(req.Scheme)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		mode, err := buildMode(req.Mode)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		tr, err := temporal.NewTracker(req.Network, mode, temporal.Config{Scheme: scheme, K: req.K, Seed: req.Seed, Workers: s.cfg.Workers})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.stream.tr = tr
	}
	tr := s.stream.tr
	if tr == nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("network: required on the first call — no density stream is established"))
		return
	}
	if req.Densities != nil && len(req.Densities) != tr.Segments() {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("densities: %d values for %d segments", len(req.Densities), tr.Segments()))
		return
	}
	if req.Updates != nil {
		if tr.Steps() == 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("updates: a new stream needs a full densities vector before sparse deltas"))
			return
		}
		if err := req.Updates.Validate(tr.Segments()); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}

	structHash, oldDens := tr.Fingerprints()
	release, err := s.acquire(ctx)
	if err != nil {
		s.writeComputeFailure(w, budget, err)
		return
	}
	var fr temporal.Frame
	if req.Densities != nil {
		fr, err = tr.Step(ctx, req.Densities)
	} else {
		fr, err = tr.ApplyDelta(ctx, req.Updates)
	}
	release()
	if err != nil {
		s.writeComputeFailure(w, budget, err)
		return
	}
	// The step superseded the previous density generation: cached
	// partition/sweep results computed from it can never be requested
	// under the new fingerprint, so drop them instead of letting dead
	// generations squat in the LRU budget.
	if _, newDens := tr.Fingerprints(); s.cache != nil && oldDens != 0 && newDens != oldDens {
		s.cache.InvalidateTag(resultcache.Tag(structHash, oldDens))
	}

	s.stream.seq++
	_, dens := tr.Fingerprints()
	doc, err := json.Marshal(RepartitionEvent{
		Seq:       s.stream.seq,
		Structure: fmt.Sprintf("%016x", structHash),
		Density:   fmt.Sprintf("%016x", dens),
		Frame:     fr,
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.hub.publish(doc)
	writeJSONBody(w, doc)
}

// watchHeartbeat paces the SSE keep-alive comments; a variable so the
// disconnect tests can tighten it.
var watchHeartbeat = 15 * time.Second

// handleWatch serves GET /v1/watch: a text/event-stream of repartition
// events. A new subscriber first receives the most recent event (so a
// dashboard connecting mid-stream renders immediately), then every
// event published while it stays connected, with comment keep-alives in
// between. The handler returns when the client disconnects.
func (s *service) handleWatch(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	// Subscriptions follow the stream to its home shard; the hop relays
	// the event stream unbuffered (proxyStream flushes per chunk).
	if home := s.streamHome(r); home != "" {
		s.proxyStream(w, r, home)
		return
	}
	s.markShard(w)
	// ResponseController reaches the Flusher through the instrumentation
	// middleware's Unwrap; a connection that cannot flush errors out of
	// the first Flush below and the handler just ends.
	rc := http.NewResponseController(w)
	ch, last, unsubscribe := s.hub.subscribe()
	defer unsubscribe()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// An immediate comment confirms the subscription even on a stream
	// that has produced no events yet.
	_, _ = fmt.Fprint(w, ": subscribed\n\n")
	send := func(doc []byte) {
		_, _ = fmt.Fprintf(w, "event: repartition\ndata: %s\n\n", doc)
	}
	if last != nil {
		send(last)
	}
	if rc.Flush() != nil {
		return
	}
	beat := time.NewTicker(watchHeartbeat)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case doc := <-ch:
			send(doc)
			if rc.Flush() != nil {
				return
			}
		case <-beat.C:
			_, _ = fmt.Fprint(w, ": keep-alive\n\n")
			if rc.Flush() != nil {
				return
			}
		}
	}
}
