package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"roadpart/internal/jobs"
	"roadpart/internal/peers"
)

// This file is the serving tier's forwarding layer (docs/DISTRIBUTED.md):
// when the daemon runs with peers, every content-addressed request is
// routed to the shard whose rendezvous position owns its FNV-64
// fingerprint, so each (structure, density, config) lives in exactly
// one shard's cache and hit rates survive scale-out. Clients stay dumb —
// any shard answers any request correctly; ownership decides where the
// compute and the cache entry live, not who may be asked.
//
// The header contract:
//
//   - X-Roadpart-Forwarded (request): set to the forwarding shard's
//     address on the proxied hop. Its presence is the single-hop guard:
//     a shard that receives it never forwards again, even if its own
//     ring disagrees about ownership, so a misconfigured peer set
//     degrades to one extra hop instead of a forwarding loop.
//   - X-Roadpart-Shard (response): the shard that actually served the
//     body (set by the computing shard, passed through the hop).
//   - X-Roadpart-Cache (response): hit|miss when served locally; the
//     hop rewrites the owner's value to remote-hit|remote-miss so
//     clients and tests can see both where the body came from and
//     whether the owner recomputed.
//
// Failure policy: a transport error on the hop (owner unreachable,
// bounded peer timeout) falls back to computing locally for
// content-addressed work — a dead peer degrades the hit rate, never
// availability. Stateful resources cannot fall back: the density
// stream lives on one shard (the ring owner of streamRouteKey) and job
// state lives on the job's owner, so those routes answer 502 when the
// owner is unreachable.

const (
	// ForwardedHeader marks the proxied hop and carries the forwarding
	// shard's address. Single-hop guard: its presence disables further
	// forwarding.
	ForwardedHeader = "X-Roadpart-Forwarded"
	// ShardHeader reports which shard served the response body.
	ShardHeader = "X-Roadpart-Shard"
	// streamRouteKey names the cluster's single density stream; its ring
	// owner (Ring.OwnerString) is the stream's home shard, where
	// POST /v1/densities state and the /v1/watch hub live.
	streamRouteKey = "/v1/densities"
)

// forwardTarget resolves where a fingerprint-keyed request must run:
// the owning peer's address, or "" when it should be served locally
// (peering off, already-forwarded hop, or self-owned key).
func (s *service) forwardTarget(r *http.Request, sum uint64) string {
	if s.ring == nil || r.Header.Get(ForwardedHeader) != "" {
		return ""
	}
	if owner := s.ring.Owner(sum); owner != s.ring.Self() {
		return owner
	}
	return ""
}

// streamHome resolves the density stream's home shard the same way.
func (s *service) streamHome(r *http.Request) string {
	if s.ring == nil || r.Header.Get(ForwardedHeader) != "" {
		return ""
	}
	if home := s.ring.OwnerString(streamRouteKey); home != s.ring.Self() {
		return home
	}
	return ""
}

// markShard stamps locally served responses with this shard's identity
// so clients (and the integration tests) can observe which shard
// actually computed. No-op outside peer mode.
func (s *service) markShard(w http.ResponseWriter) {
	if s.ring != nil {
		w.Header().Set(ShardHeader, s.ring.Self())
	}
}

// forwardKeyed proxies a fingerprint-keyed request to its owning shard.
// It reports true when a response was written; false means the caller
// must serve locally — either the key is locally owned or the owner was
// unreachable (counted by the peer client) and local compute is the
// availability fallback.
func (s *service) forwardKeyed(w http.ResponseWriter, r *http.Request, sum uint64, body []byte) bool {
	target := s.forwardTarget(r, sum)
	if target == "" {
		return false
	}
	return s.proxy(w, r, target, body)
}

// proxy performs one forwarded exchange and relays the owner's response
// verbatim apart from the documented header rewrites. Returns false on
// a transport failure so the caller can fall back; once the owner has
// answered, its response — success or failure — is the response, so a
// proxied 429/503 carries the origin shard's Retry-After untouched
// rather than a hint re-derived from this shard's (idle) queue.
//
// The transport reads its own copy of a pooled body: net/http may go on
// reading a request body after Do returns (a peer can answer before it
// has read the body, or the exchange is cancelled mid-write), so a
// buffer that the handler releases once the response is relayed must
// never reach it.
func (s *service) proxy(w http.ResponseWriter, r *http.Request, target string, body []byte) bool {
	var rd io.Reader = http.NoBody
	if body != nil {
		if classPool(body) != nil {
			body = bytes.Clone(body)
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, rd)
	if err != nil {
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardedHeader, s.ring.Self())
	resp, err := s.peerClient.Do(target, req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// relayHeaders copies the owner's response headers onto the hop,
// rewriting the cache state to its remote-* form. Retry-After crosses
// verbatim: the origin shard derived it from its own backlog and
// latency EWMA, which is the queue the retrying client will actually
// join.
func relayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", "Location", ShardHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	switch resp.Header.Get(CacheHeader) {
	case "hit":
		w.Header().Set(CacheHeader, "remote-hit")
	case "miss":
		w.Header().Set(CacheHeader, "remote-miss")
	case "":
	default:
		// Defensive: an unexpected value (a double hop cannot happen
		// under the single-hop guard) passes through unmodified.
		w.Header().Set(CacheHeader, resp.Header.Get(CacheHeader))
	}
}

// proxyStream forwards an SSE subscription to the stream's home shard
// and relays the event stream unbuffered: every chunk read from the
// owner is written and flushed immediately, so repartition events and
// keep-alive comments reach the subscriber with one hop of latency,
// not when some buffer fills. The subscriber's disconnect cancels the
// upstream request through the shared context.
func (s *service) proxyStream(w http.ResponseWriter, r *http.Request, target string) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, http.NoBody)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set(ForwardedHeader, s.ring.Self())
	resp, err := s.peerClient.DoStream(target, req)
	if err != nil {
		writeErr(w, http.StatusBadGateway,
			fmt.Errorf("density-stream home %s unreachable: %w", target, err))
		return
	}
	defer resp.Body.Close()
	relayHeaders(w, resp)
	if v := resp.Header.Get("Cache-Control"); v != "" {
		w.Header().Set("Cache-Control", v)
	}
	w.WriteHeader(resp.StatusCode)
	// ResponseController reaches the Flusher through the instrumentation
	// middleware's Unwrap, exactly as the local SSE handler does.
	rc := http.NewResponseController(w)
	buf := make([]byte, 4<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

// forwardJobItem routes a poll/cancel/result request for a job this
// shard does not know to the shard that owns the job's fingerprint —
// jobs are submitted to their fingerprint's owner, so that is where the
// state machine lives. Local knowledge wins first (a job accepted here
// as an unreachable-owner fallback stays pollable here); an unreachable
// owner is 502, not 404, because "not found" would tell the client to
// stop polling a job that still exists.
func (s *service) forwardJobItem(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.ring == nil || r.Header.Get(ForwardedHeader) != "" {
		return false
	}
	if _, err := s.jobs.Get(id); err == nil {
		return false // known locally; serve locally
	}
	sum, ok := jobs.FingerprintFromID(id)
	if !ok {
		return false // malformed id; local handling produces the 404
	}
	target := s.forwardTarget(r, sum)
	if target == "" {
		return false
	}
	if !s.proxy(w, r, target, nil) {
		writeErr(w, http.StatusBadGateway,
			fmt.Errorf("job %s lives on shard %s, which is unreachable", id, target))
	}
	return true
}

// newPeering builds the ring and transport from the config, or returns
// (nil, nil, nil) when peering is off. PeerTimeout <= 0 defaults to the
// request deadline cap plus headroom: the hop must outlive the owner's
// compute budget or every long partition would "fail over" to a
// duplicate local compute at the deadline.
func newPeering(cfg Config, maxTimeout func() time.Duration) (*peers.Ring, *peers.Client, error) {
	if cfg.Self == "" && len(cfg.Peers) == 0 {
		return nil, nil, nil
	}
	ring, err := peers.NewRing(cfg.Self, cfg.Peers)
	if err != nil {
		return nil, nil, err
	}
	timeout := cfg.PeerTimeout
	if timeout <= 0 {
		timeout = maxTimeout() + 30*time.Second
	}
	return ring, peers.NewClient(timeout), nil
}
