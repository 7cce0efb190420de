package peers

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

var threePeers = []string{"http://a:8080", "http://b:8080", "http://c:8080"}

func mustRing(t *testing.T, self string, peers []string) *Ring {
	t.Helper()
	r, err := NewRing(self, peers)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name  string
		self  string
		peers []string
	}{
		{"empty self", "", threePeers},
		{"relative self", "a:8080", nil},
		{"bad scheme", "ftp://a:8080", nil},
		{"bad peer", "http://a:8080", []string{"not a url at all ://"}},
		{"relative peer", "http://a:8080", []string{"b:8080"}},
	}
	for _, tc := range cases {
		if _, err := NewRing(tc.self, tc.peers); err == nil {
			t.Errorf("%s: NewRing accepted self=%q peers=%v", tc.name, tc.self, tc.peers)
		}
	}
}

// TestRingNormalization pins that self is folded into the membership,
// duplicates collapse, and trailing slashes do not split a peer into
// two identities.
func TestRingNormalization(t *testing.T) {
	r := mustRing(t, "http://a:8080/", []string{"http://b:8080", "http://a:8080", "http://b:8080/"})
	if r.Self() != "http://a:8080" {
		t.Fatalf("Self = %q", r.Self())
	}
	if got := r.peers; len(got) != 2 || got[0] != "http://a:8080" || got[1] != "http://b:8080" {
		t.Fatalf("Peers = %v", got)
	}
	// Omitting self from the peer list is equivalent to including it.
	r2 := mustRing(t, "http://a:8080", []string{"http://b:8080"})
	if len(r2.peers) != 2 {
		t.Fatalf("membership = %v, want 2 peers", r2.peers)
	}
}

// TestRingOwnerAgreement is the property the whole serving tier rests
// on: every shard, whatever its own identity and however its flag
// listed the peers, maps a fingerprint to the same owner.
func TestRingOwnerAgreement(t *testing.T) {
	rings := []*Ring{
		mustRing(t, "http://a:8080", threePeers),
		mustRing(t, "http://b:8080", []string{"http://c:8080", "http://a:8080/"}),
		mustRing(t, "http://c:8080/", []string{"http://b:8080", "http://a:8080", "http://c:8080"}),
	}
	for key := uint64(0); key < 1000; key++ {
		want := rings[0].Owner(key)
		for i, r := range rings[1:] {
			if got := r.Owner(key); got != want {
				t.Fatalf("key %d: ring %d says %q, ring 0 says %q", key, i+1, got, want)
			}
		}
	}
}

// TestRingBalance sanity-checks the load split: over 1k keys each of 3
// peers should own a non-degenerate share (the HRW scores are hashes,
// so the split concentrates around 1/3).
func TestRingBalance(t *testing.T) {
	r := mustRing(t, "http://a:8080", threePeers)
	counts := map[string]int{}
	for key := uint64(0); key < 1000; key++ {
		counts[r.Owner(key)]++
	}
	for _, p := range r.peers {
		if counts[p] < 150 {
			t.Errorf("peer %s owns only %d of 1000 keys — pathological imbalance", p, counts[p])
		}
	}
}

// TestRingRemapBoundOnLeave pins the rendezvous minimal-disruption
// bound the acceptance criteria name: removing one of 3 peers must
// remap fewer than 50% of a 1k-key sample (the expectation is its own
// ~1/3 share), and a key owned by a surviving peer must never move.
func TestRingRemapBoundOnLeave(t *testing.T) {
	before := mustRing(t, "http://a:8080", threePeers)
	after := mustRing(t, "http://a:8080", []string{"http://b:8080"}) // c left
	removed := "http://c:8080"
	moved := 0
	for key := uint64(0); key < 1000; key++ {
		was, is := before.Owner(key), after.Owner(key)
		if was != is {
			moved++
			if was != removed {
				t.Fatalf("key %d moved %s → %s although its owner survived", key, was, is)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed peer — sample broken")
	}
	if moved >= 500 {
		t.Fatalf("%d of 1000 keys remapped on one departure; rendezvous bound is < 500", moved)
	}
}

// TestRingRemapBoundOnJoin is the same bound for a peer joining a
// 3-ring: only keys the newcomer wins may move (expected ~1/4).
func TestRingRemapBoundOnJoin(t *testing.T) {
	before := mustRing(t, "http://a:8080", threePeers)
	after := mustRing(t, "http://a:8080", append([]string{"http://d:8080"}, threePeers...))
	joined := "http://d:8080"
	moved := 0
	for key := uint64(0); key < 1000; key++ {
		was, is := before.Owner(key), after.Owner(key)
		if was != is {
			moved++
			if is != joined {
				t.Fatalf("key %d moved %s → %s although the newcomer did not win it", key, was, is)
			}
		}
	}
	if moved == 0 || moved >= 500 {
		t.Fatalf("%d of 1000 keys remapped on one join; want (0, 500)", moved)
	}
}

// TestOwnerStringDeterministic pins the named-singleton routing the
// density stream uses: the same name owns the same shard everywhere.
func TestOwnerStringDeterministic(t *testing.T) {
	a := mustRing(t, "http://a:8080", threePeers)
	b := mustRing(t, "http://b:8080", threePeers)
	if a.OwnerString("/v1/densities") != b.OwnerString("/v1/densities") {
		t.Fatal("stream home differs between shards")
	}
}

// TestClientCountsAndEWMA drives a round-trip through a live test
// server and a failed one through a dead address, checking the latency
// EWMA moves only on success.
func TestClientCountsAndEWMA(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := NewClient(5 * time.Second)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if latency(c, srv.URL) <= 0 {
		t.Fatal("success did not feed the latency EWMA")
	}

	dead := "http://127.0.0.1:1"
	req2, _ := http.NewRequest(http.MethodGet, dead+"/v1/healthz", nil)
	if _, err := c.Do(dead, req2); err == nil {
		t.Fatal("round-trip to a dead peer succeeded")
	}
	if latency(c, dead) != 0 {
		t.Fatal("transport failure fed the latency EWMA")
	}
}

// latency reads the peer's current EWMA in seconds (0 before any
// success) under the client's lock.
func latency(c *Client, peer string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lat[peer]
}

// TestClientConcurrent pins the EWMA bookkeeping under -race: Do and
// latency reads from many goroutines at once.
func TestClientConcurrent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := NewClient(5 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
				if resp, err := c.Do(srv.URL, req); err == nil {
					resp.Body.Close()
				}
				_ = latency(c, srv.URL)
			}
		}()
	}
	wg.Wait()
}
