// Package peers is the multi-daemon routing layer: a rendezvous (HRW)
// hash ring over the serving tier's FNV-64 content fingerprints
// (internal/resultcache Key.Sum) plus the bounded HTTP transport the
// forwarding layer in internal/server uses to proxy a request to the
// shard that owns its fingerprint. Ownership is a pure function of the
// peer set and the key — every shard configured with the same peer list
// computes the same owner — so cache affinity survives scale-out: each
// (structure, density, config) fingerprint is computed and cached on
// exactly one shard no matter which shard the client happened to hit,
// and the aggregate hit rate of N daemons matches one big daemon's
// instead of collapsing to N cold caches (docs/DISTRIBUTED.md).
//
// Rendezvous hashing is chosen over segment-based consistent hashing
// for its minimal-disruption property without virtual nodes: every peer
// scores every key and the highest score wins, so when a peer leaves
// only the keys it owned move (expected 1/N of the keyspace), when one
// joins only the keys it wins move (expected 1/(N+1)), and a key owned
// by a surviving peer never changes owner. peers_test.go pins both
// bounds on a 1k-key sample.
package peers

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"roadpart/internal/obs"
)

// Ring is an immutable rendezvous-hash view of the peer set. Membership
// is fixed at construction — a deploy-time property, like the rest of
// the daemon's flags — so ownership never flaps at runtime; a dead peer
// is handled by the forwarding layer's local-compute fallback, not by
// re-hashing.
type Ring struct {
	self  string
	peers []string // normalized base URLs, sorted for deterministic ties
}

// NewRing validates and normalizes the peer set. self is this daemon's
// own advertised base URL; it is added to the set if absent, so
// `-peers` may list either every daemon or only the others. Every
// address must be an absolute http:// or https:// URL; trailing slashes
// are stripped so equal peers compare equal.
func NewRing(self string, peers []string) (*Ring, error) {
	if self == "" {
		return nil, fmt.Errorf("peers: self address required (the daemon must know its own base URL to find itself on the ring)")
	}
	selfN, err := normalize(self)
	if err != nil {
		return nil, fmt.Errorf("peers: self: %w", err)
	}
	seen := map[string]bool{selfN: true}
	all := []string{selfN}
	for _, p := range peers {
		n, err := normalize(p)
		if err != nil {
			return nil, fmt.Errorf("peers: %w", err)
		}
		if !seen[n] {
			seen[n] = true
			all = append(all, n)
		}
	}
	sort.Strings(all)
	return &Ring{self: selfN, peers: all}, nil
}

// normalize canonicalizes one peer base URL.
func normalize(addr string) (string, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return "", fmt.Errorf("peer address %q: %w", addr, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("peer address %q: want an absolute http(s) base URL like http://host:port", addr)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// Self returns this daemon's normalized address.
func (r *Ring) Self() string { return r.self }

// Owner returns the peer that owns the fingerprint: the member with the
// highest rendezvous score. Deterministic across every shard holding
// the same membership; the sorted iteration order breaks the
// (astronomically unlikely) score tie the same way everywhere.
func (r *Ring) Owner(sum uint64) string {
	best, bestScore := "", uint64(0)
	for _, p := range r.peers {
		if s := score(p, sum); best == "" || s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// OwnerString is Owner over the FNV-64a hash of a string key — used for
// singleton resources that have a name rather than a content
// fingerprint (the density stream's home shard).
func (r *Ring) OwnerString(key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return r.Owner(h.Sum64())
}

// score is the rendezvous weight of (peer, key): FNV-64a over the peer
// address followed by the key's little-endian bytes.
func score(peer string, sum uint64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(peer))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], sum)
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// Transport observability: one counter family for forward outcomes and
// a per-peer latency gauge fed by an EWMA (α = 0.2, same constant as
// the serving layer's compute-latency EWMA), so a dashboard shows both
// how often each peer is consulted and how fast it answers.
const (
	// EventsFamily counts peer round-trips, by peer and result
	// ("ok" = an HTTP response arrived, whatever its status;
	// "error" = the transport failed and the forwarding layer fell back).
	EventsFamily = "roadpart_peer_requests_total"
	eventsHelp   = "Requests forwarded to peer shards, by peer and result (ok = HTTP response received, error = transport failure, the caller fell back to local compute)."
	// LatencyFamily is the per-peer forward-latency EWMA in seconds.
	LatencyFamily = "roadpart_peer_forward_latency_seconds"
	latencyHelp   = "EWMA of successful peer round-trip latency, by peer (time to response headers for streams, full exchange otherwise)."
)

func countPeer(peer, result string) {
	obs.Default().Counter(EventsFamily, eventsHelp, "peer", peer, "result", result).Inc()
}

// Client is the bounded HTTP transport for peer forwarding. Two inner
// clients share one connection pool: the default one carries an overall
// exchange timeout (a wedged peer cannot pin the forwarding goroutine
// past it), the stream one bounds only dial and response headers so a
// proxied SSE subscription can live as long as the subscriber does.
type Client struct {
	hc  *http.Client
	sse *http.Client

	mu  sync.Mutex
	lat map[string]float64 // per-peer EWMA seconds
}

// NewClient builds the peer transport. timeout bounds a whole forwarded
// exchange (dial, write, compute on the owner, read); <= 0 selects
// DefaultTimeout. Callers size it at least as large as the owner's
// compute deadline — internal/server defaults it to MaxTimeout plus
// headroom — or forwarded requests die before the owner answers.
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
	sseTr := tr.Clone()
	sseTr.ResponseHeaderTimeout = headerTimeout
	return &Client{
		hc:  &http.Client{Timeout: timeout, Transport: tr},
		sse: &http.Client{Transport: sseTr},
		lat: make(map[string]float64),
	}
}

const (
	// DefaultTimeout bounds a forwarded exchange when the caller gives
	// no bound.
	DefaultTimeout = 30 * time.Second
	// headerTimeout bounds the wait for a stream's response headers; the
	// body then flows unbounded (the subscription is long-lived by
	// design, ended by the client's context).
	headerTimeout = 30 * time.Second
)

// Do performs one bounded peer round-trip, counting the outcome and
// folding a success into the peer's latency EWMA. peer is the owner's
// base URL (the counter label); the request's URL must already point at
// it.
func (c *Client) Do(peer string, req *http.Request) (*http.Response, error) {
	return c.roundTrip(peer, c.hc, req)
}

// DoStream is Do over the streaming client: response headers are
// bounded, the body is not. The latency EWMA records time to headers.
func (c *Client) DoStream(peer string, req *http.Request) (*http.Response, error) {
	return c.roundTrip(peer, c.sse, req)
}

func (c *Client) roundTrip(peer string, hc *http.Client, req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		countPeer(peer, "error")
		return nil, err
	}
	countPeer(peer, "ok")
	c.observe(peer, time.Since(t0))
	return resp, nil
}

// observe folds one successful round-trip into the per-peer EWMA and
// publishes it. Mutex-guarded like the serving layer's latEWMA: Do and
// Latency race freely under the race detector.
func (c *Client) observe(peer string, d time.Duration) {
	sec := d.Seconds()
	c.mu.Lock()
	v, ok := c.lat[peer]
	if ok {
		v = 0.8*v + 0.2*sec
	} else {
		v = sec
	}
	c.lat[peer] = v
	c.mu.Unlock()
	obs.Default().Gauge(LatencyFamily, latencyHelp, "peer", peer).Set(v)
}
