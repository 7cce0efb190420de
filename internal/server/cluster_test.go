package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadpart/internal/jobs"
	"roadpart/internal/obs"
	"roadpart/internal/peers"
)

// This file is the multi-daemon integration suite (`make cluster-smoke`
// runs it under -race): it spins N real in-process daemons — separate
// Service instances behind separate TCP listeners, talking to each other
// over actual HTTP — and pins the docs/DISTRIBUTED.md contract: key
// affinity, byte-identical responses whatever the entry shard, peer-hit
// cache semantics, fingerprint-routed job polls, unbuffered SSE through
// the forwarding hop, and local-compute failover when an owner dies.

type clusterShard struct {
	url string
	hs  *http.Server
	sv  *Service
}

type cluster struct {
	t      *testing.T
	urls   []string
	shards []*clusterShard
	ring   *peers.Ring // the membership every shard was configured with
}

func startClusterShard(t *testing.T, ln net.Listener, self string, urls []string) *clusterShard {
	t.Helper()
	sv, err := NewService(Config{
		Self:          self,
		Peers:         urls,
		CacheMaxBytes: 32 << 20,
		PeerTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := &clusterShard{url: self, hs: &http.Server{Handler: sv}, sv: sv}
	go func() { _ = sh.hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = sh.hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = sh.sv.Close(ctx)
	})
	return sh
}

// startCluster binds n loopback listeners first (so every shard knows
// the full membership before any serves), then starts one daemon per
// listener with Self = its own URL and Peers = all URLs — exactly what
// `roadpartd -self ... -peers ...` does per process.
func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	c := &cluster{t: t, urls: urls}
	for i := range lns {
		c.shards = append(c.shards, startClusterShard(t, lns[i], urls[i], urls))
	}
	ring, err := peers.NewRing(urls[0], urls)
	if err != nil {
		t.Fatal(err)
	}
	c.ring = ring
	return c
}

// do sends one request into the cluster through shard via, over real
// HTTP, and returns the response with its fully read body.
func (c *cluster) do(via int, method, path string, body []byte) (*http.Response, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.urls[via]+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s via shard %d: %v", method, path, via, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, b
}

func marshalBody(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func peerErrCount(peer string) uint64 {
	return obs.Default().Counter(peers.EventsFamily, "", "peer", peer, "result", "error").Value()
}

// stripTiming drops the wall-clock fields (timing, elapsed) from a
// partition body so two independent computes of the same fingerprint
// can be compared: the partitioning payload is deterministic, the
// stopwatch around it is not.
func stripTiming(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "timing")
	delete(doc, "elapsed")
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterByteIdentityAndRemoteHit is the acceptance criterion in
// one test: an identical request entering any of 3 shards returns a
// byte-identical body served by the same owning shard, and a request
// entering a non-owner after the owner has cached is a remote-hit — no
// recompute, no per-shard cold cache.
func TestClusterByteIdentityAndRemoteHit(t *testing.T) {
	c := startCluster(t, 3)
	nw := testNet(t)
	body := marshalBody(t, PartitionRequest{Network: nw, Scheme: "AG", K: 3, Seed: 7})

	resp0, b0 := c.do(0, http.MethodPost, "/v1/partition", body)
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d body=%s", resp0.StatusCode, b0)
	}
	owner := resp0.Header.Get(ShardHeader)
	if owner == "" {
		t.Fatal("no " + ShardHeader + " on a cluster response")
	}
	wantState := "miss"
	if owner != c.urls[0] {
		wantState = "remote-miss"
	}
	if got := resp0.Header.Get(CacheHeader); got != wantState {
		t.Fatalf("first request %s = %q, want %q (owner %s, entry %s)",
			CacheHeader, got, wantState, owner, c.urls[0])
	}

	remoteHits := 0
	for via := 1; via < 3; via++ {
		resp, b := c.do(via, http.MethodPost, "/v1/partition", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("via shard %d: status %d", via, resp.StatusCode)
		}
		if !bytes.Equal(b, b0) {
			t.Fatalf("body via shard %d differs from shard 0's", via)
		}
		if got := resp.Header.Get(ShardHeader); got != owner {
			t.Fatalf("via shard %d served by %s; the fingerprint's owner is %s", via, got, owner)
		}
		want := "hit"
		if owner != c.urls[via] {
			want = "remote-hit"
			remoteHits++
		}
		if got := resp.Header.Get(CacheHeader); got != want {
			t.Fatalf("via shard %d: %s = %q, want %q", via, CacheHeader, got, want)
		}
	}
	if remoteHits == 0 {
		t.Fatal("all three entry shards were the owner — impossible on a 3-ring")
	}
}

// TestClusterRemapBound pins the rendezvous bound on the cluster's own
// membership: dropping one of the 3 live daemons' addresses remaps
// fewer than 50% of a 1k-key sample (expected: the departed shard's
// ~1/3 share), so a deploy that loses a shard reheats a third of the
// cache, not all of it.
func TestClusterRemapBound(t *testing.T) {
	c := startCluster(t, 3)
	before := c.ring
	after, err := peers.NewRing(c.urls[0], c.urls[:2])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key := uint64(0); key < 1000; key++ {
		if before.Owner(key) != after.Owner(key) {
			moved++
		}
	}
	if moved == 0 || moved >= 500 {
		t.Fatalf("%d of 1000 keys remapped when 1 of 3 shards left; want (0, 500)", moved)
	}
}

// TestClusterJobSubmitHerePollThere is the Location-header bugfix
// regression: a job submitted through shard A must be pollable through
// shard B — GET/DELETE/result route by the fingerprint embedded in the
// job id — and the result body must match the synchronous endpoint's
// bytes whatever shard serves either.
func TestClusterJobSubmitHerePollThere(t *testing.T) {
	c := startCluster(t, 3)
	nw := testNet(t)
	preq := PartitionRequest{Network: nw, Scheme: "AG", K: 3, Seed: 11}
	body := marshalBody(t, JobSubmitRequest{Op: "partition", Partition: &preq})

	resp, b := c.do(0, http.MethodPost, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d body=%s", resp.StatusCode, b)
	}
	owner := resp.Header.Get(ShardHeader)
	var sub JobSubmitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+id {
		t.Fatalf("Location = %q, want %q", loc, "/v1/jobs/"+id)
	}
	if _, ok := jobs.FingerprintFromID(id); !ok {
		t.Fatalf("job id %q does not embed a routable fingerprint", id)
	}

	// Poll through the two shards the submission did NOT enter by.
	deadline := time.Now().Add(20 * time.Second)
	for via := 1; ; via = 1 + via%2 {
		resp, b := c.do(via, http.MethodGet, "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll via shard %d = %d body=%s", via, resp.StatusCode, b)
		}
		if got := resp.Header.Get(ShardHeader); got != owner {
			t.Fatalf("poll served by %s; job lives on %s", got, owner)
		}
		var st JobStatusResponse
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.Job.State == jobs.StateDone {
			break
		}
		if st.Job.State == jobs.StateFailed || st.Job.State == jobs.StateCancelled {
			t.Fatalf("job ended %s: %s", st.Job.State, b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 20s", st.Job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	_, result := c.do(2, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	respS, syncBody := c.do(1, http.MethodPost, "/v1/partition", marshalBody(t, preq))
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("sync compare request = %d", respS.StatusCode)
	}
	if !bytes.Equal(result, syncBody) {
		t.Fatal("job result bytes differ from the synchronous endpoint's")
	}
}

// TestClusterFailoverAndRejoin kills the shard that owns a fingerprint
// and asserts the receiving shard degrades to computing locally —
// correct body, counted transport failure, availability intact — then
// restarts the owner at the same address and asserts affinity recovers.
func TestClusterFailoverAndRejoin(t *testing.T) {
	c := startCluster(t, 3)
	nw := testNet(t)

	// Find a request shard 0 does not own, so entry 0 must forward.
	var body, b0 []byte
	var owner string
	for seed := uint64(1); ; seed++ {
		body = marshalBody(t, PartitionRequest{Network: nw, Scheme: "AG", K: 3, Seed: seed})
		resp, b := c.do(0, http.MethodPost, "/v1/partition", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe seed %d = %d", seed, resp.StatusCode)
		}
		if owner = resp.Header.Get(ShardHeader); owner != c.urls[0] {
			b0 = b
			break
		}
		if seed > 64 {
			t.Fatal("no remotely-owned fingerprint in 64 seeds")
		}
	}
	ownerIdx := -1
	for i, u := range c.urls {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s is not a cluster member", owner)
	}

	errsBefore := peerErrCount(owner)
	_ = c.shards[ownerIdx].hs.Close() // kill the owner

	resp, b := c.do(0, http.MethodPost, "/v1/partition", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dead owner took availability down: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != c.urls[0] {
		t.Fatalf("fallback served by %s, want local shard %s", got, c.urls[0])
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("fallback %s = %q, want miss (local compute)", CacheHeader, got)
	}
	if !bytes.Equal(stripTiming(t, b), stripTiming(t, b0)) {
		t.Fatal("degraded local compute disagrees with the owner's partition")
	}
	if peerErrCount(owner) <= errsBefore {
		t.Fatalf("transport failure to %s not counted in %s", owner, peers.EventsFamily)
	}

	// Rejoin: a fresh daemon at the same address (same ring position).
	ln, err := net.Listen("tcp", strings.TrimPrefix(owner, "http://"))
	if err != nil {
		t.Fatalf("rebinding the owner's address: %v", err)
	}
	c.shards[ownerIdx] = startClusterShard(t, ln, owner, c.urls)
	resp2, b2 := c.do(0, http.MethodPost, "/v1/partition", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-rejoin request = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(ShardHeader); got != owner {
		t.Fatalf("affinity did not recover: served by %s, want %s", got, owner)
	}
	if !bytes.Equal(stripTiming(t, b2), stripTiming(t, b0)) {
		t.Fatal("rejoined owner disagrees with its pre-crash partition")
	}
}

// TestClusterWatchViaNonOwner is the SSE bugfix regression: a
// subscriber connected to a non-owner shard must receive the home
// shard's keep-alives and repartition events promptly — the forwarding
// hop relays flush-per-chunk, it does not buffer.
func TestClusterWatchViaNonOwner(t *testing.T) {
	oldBeat := watchHeartbeat
	watchHeartbeat = 50 * time.Millisecond
	defer func() { watchHeartbeat = oldBeat }()

	c := startCluster(t, 3)
	home := c.ring.OwnerString(streamRouteKey)
	entry := -1
	for i, u := range c.urls {
		if u != home {
			entry = i
			break
		}
	}

	req, err := http.NewRequest(http.MethodGet, c.urls[entry]+"/v1/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch via non-owner = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != home {
		t.Fatalf("watch served by %s; stream home is %s", got, home)
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 256<<10), 256<<10)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(prefix string, d time.Duration) {
		t.Helper()
		deadline := time.After(d)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					t.Fatalf("stream closed before %q arrived", prefix)
				}
				if strings.HasPrefix(ln, prefix) {
					return
				}
			case <-deadline:
				t.Fatalf("no %q within %v — the hop is buffering", prefix, d)
			}
		}
	}

	waitLine(": subscribed", 5*time.Second)
	waitLine(": keep-alive", 5*time.Second) // heartbeats cross the hop

	// Establishing the stream through the same non-owner shard must land
	// on the home tracker and fan its event back out through the hop.
	nw := testNet(t)
	est := marshalBody(t, DensitiesRequest{
		Network: nw, Scheme: "ASG", K: 4, Seed: 9, Densities: nw.Densities(),
	})
	respD, bD := c.do(entry, http.MethodPost, "/v1/densities", est)
	if respD.StatusCode != http.StatusOK {
		t.Fatalf("densities via non-owner = %d body=%s", respD.StatusCode, bD)
	}
	if got := respD.Header.Get(ShardHeader); got != home {
		t.Fatalf("densities step served by %s, want stream home %s", got, home)
	}
	waitLine("event: repartition", 5*time.Second)
	waitLine("data: ", 5*time.Second)
}

// TestClusterRetryAfterVerbatim is the shed-hint bugfix regression: a
// proxied 429 must carry the origin shard's Retry-After untouched, not
// one re-derived from the (idle) forwarding shard's queue.
func TestClusterRetryAfterVerbatim(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) == "" {
			t.Errorf("proxied request lacks %s", ForwardedHeader)
		}
		w.Header().Set("Retry-After", "37")
		w.Header().Set(ShardHeader, "stub")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer stub.Close()

	self := "http://127.0.0.1:9" // never dialed: stub-owned keys forward, self-owned compute locally
	sv := newTestService(t, Config{Self: self, Peers: []string{stub.URL}, CacheMaxBytes: 1 << 20})
	nw := testNet(t)
	for seed := uint64(1); seed <= 64; seed++ {
		rec := post(t, sv, "/v1/partition", PartitionRequest{Network: nw, Scheme: "AG", K: 3, Seed: seed})
		switch rec.Code {
		case http.StatusTooManyRequests:
			if got := rec.Header().Get("Retry-After"); got != "37" {
				t.Fatalf("Retry-After = %q, want the origin shard's %q verbatim", got, "37")
			}
			if got := rec.Header().Get(ShardHeader); got != "stub" {
				t.Fatalf("%s = %q, want the origin shard's", ShardHeader, got)
			}
			return
		case http.StatusOK: // self-owned fingerprint, computed locally
		default:
			t.Fatalf("seed %d: status %d body=%s", seed, rec.Code, rec.Body.String())
		}
	}
	t.Fatal("no fingerprint hashed to the stub peer in 64 seeds")
}

// TestClusterSingleHopGuard pins the loop guard: a request that already
// carries X-Roadpart-Forwarded is computed locally even when this
// shard's ring says another peer owns it.
func TestClusterSingleHopGuard(t *testing.T) {
	forwarded := 0
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded++
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer stub.Close()
	self := "http://127.0.0.1:9"
	sv := newTestService(t, Config{Self: self, Peers: []string{stub.URL}, CacheMaxBytes: 1 << 20})
	nw := testNet(t)

	// Find a stub-owned request, then replay it marked as already
	// forwarded: it must be served here, without another hop.
	for seed := uint64(1); seed <= 64; seed++ {
		doc := PartitionRequest{Network: nw, Scheme: "AG", K: 3, Seed: seed}
		rec := post(t, sv, "/v1/partition", doc)
		if rec.Code != http.StatusTooManyRequests {
			continue
		}
		hops := forwarded
		req := httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(marshalBody(t, doc)))
		req.Header.Set(ForwardedHeader, "http://elsewhere:1")
		rec2 := httptest.NewRecorder()
		sv.ServeHTTP(rec2, req)
		if rec2.Code != http.StatusOK {
			t.Fatalf("forwarded hop = %d, want local compute", rec2.Code)
		}
		if forwarded != hops {
			t.Fatal("a forwarded request was forwarded again — loop guard broken")
		}
		if got := rec2.Header().Get(ShardHeader); got != self {
			t.Fatalf("%s = %q, want %q (served locally)", ShardHeader, got, self)
		}
		if got := rec2.Header().Get(CacheHeader); got != "miss" {
			t.Fatalf("%s = %q, want miss", CacheHeader, got)
		}
		return
	}
	t.Fatal("no fingerprint hashed to the stub peer in 64 seeds")
}

// TestLatEWMAConcurrent pins (under -race) that the Retry-After latency
// EWMA tolerates concurrent observe/seconds — the audit the peer-hint
// bugfix asked for.
func TestLatEWMAConcurrent(t *testing.T) {
	var l latEWMA
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if g%2 == 0 {
					l.observe(time.Duration(i) * time.Microsecond)
				} else {
					_ = l.seconds()
				}
			}
		}(g)
	}
	wg.Wait()
	if l.seconds() < 0 {
		t.Fatal("EWMA went negative")
	}
}

// TestClusterForwardedBodyIntact: an owner that answers before it reads
// the forwarded body still reads every byte the client sent, although
// the forwarding shard released the body once the answer was relayed
// and the next requests recycled its buffer. It covers both hops that
// carry a body: the stream home (a 350 kB densities step) and a keyed
// partition (hot's 187 kB document). net/http's transport waits up to
// 50 ms for the request write to finish before it hands back the
// answer's end, so this holds at any owner that reads within that
// time; proxy's copy covers an exchange abandoned mid-write, which no
// owner receives intact.
func TestClusterForwardedBodyIntact(t *testing.T) {
	received := make(chan []byte)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Length", "3")
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, "ok\n")
		_ = rc.Flush()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("owner reading the forwarded body: %v", err)
		}
		received <- b
	}))
	defer stub.Close()

	// Pick an address for this shard that makes the stub the stream home.
	var self string
	for port := 9; self == ""; port++ {
		cand := fmt.Sprintf("http://127.0.0.1:%d", port)
		ring, err := peers.NewRing(cand, []string{stub.URL})
		if err != nil {
			t.Fatal(err)
		}
		if ring.OwnerString(streamRouteKey) == stub.URL {
			self = cand
		}
	}
	sv := newTestService(t, Config{Self: self, Peers: []string{stub.URL}})
	ring, err := peers.NewRing(self, []string{stub.URL})
	if err != nil {
		t.Fatal(err)
	}

	densities := make([]float64, 20000)
	for i := range densities {
		densities[i] = float64(i) / 7
	}
	var forwarded [][2]string // path, body
	for seed := 0; seed < 4; seed++ {
		densities[0] = float64(seed)
		forwarded = append(forwarded, [2]string{"/v1/densities", string(marshalBody(t, DensitiesRequest{Densities: densities}))})
	}
	net := hotNet(t)
	for seed := uint64(1); len(forwarded) < 8; seed++ {
		doc := &PartitionRequest{Network: net, K: 6, Scheme: "AG", Seed: seed}
		k, err := sv.svc.resolve(doc)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(k.key.Sum) == stub.URL {
			forwarded = append(forwarded, [2]string{"/v1/partition", string(marshalBody(t, doc))})
		}
	}

	for _, f := range forwarded {
		path, body := f[0], f[1]
		if rec := post(t, sv, path, rawBody(body)); rec.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d body=%s, want the owner's 202", path, rec.Code, rec.Body.String())
		}
		// Requests of the same size whose bodies land in the released
		// buffer and are rejected here.
		junk := strings.Repeat("x", len(body))
		for i := 0; i < 4; i++ {
			if rec := post(t, sv, path, rawBody(junk)); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s junk: status %d, want 400", path, rec.Code)
			}
		}
		if got := <-received; string(got) != body {
			t.Fatalf("%s: the owner read %d bytes that differ from the %d sent", path, len(got), len(body))
		}
	}
}
