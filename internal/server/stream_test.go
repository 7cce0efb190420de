package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadpart/internal/roadnet"
)

// postEvent posts one density step and decodes the repartition event.
func postEvent(t *testing.T, srv http.Handler, req DensitiesRequest) RepartitionEvent {
	t.Helper()
	rec := post(t, srv, "/v1/densities", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/densities = %d body=%s", rec.Code, rec.Body.String())
	}
	var ev RepartitionEvent
	if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestDensitiesStream(t *testing.T) {
	srv := New()
	net := testNet(t)
	d0 := net.Densities()

	ev := postEvent(t, srv, DensitiesRequest{Network: net, Scheme: "ASG", K: 4, Seed: 9, Densities: d0})
	if ev.Seq != 1 {
		t.Fatalf("seq = %d, want 1", ev.Seq)
	}
	if ev.Frame.Path != "full" {
		t.Fatalf("first frame path = %q, want full", ev.Frame.Path)
	}
	if len(ev.Frame.Assign) != len(net.Segments) {
		t.Fatalf("assign covers %d of %d segments", len(ev.Frame.Assign), len(net.Segments))
	}
	if ev.Density == "" || ev.Structure == "" {
		t.Fatal("event is missing fingerprints")
	}

	// A sparse delta advances the stream; the second frame is the first
	// re-split, so it recomputes every region — path reflects that
	// honestly. A third identical-delta... no: an update to the same
	// value changes nothing, so force distinct values.
	delta := roadnet.DensityDelta{{Segment: 0, Density: d0[0] + 1}}
	ev2 := postEvent(t, srv, DensitiesRequest{Updates: delta})
	if ev2.Seq != 2 {
		t.Fatalf("seq = %d, want 2", ev2.Seq)
	}
	// Now only segment 0's region is dirty: the step must take the
	// incremental path.
	delta2 := roadnet.DensityDelta{{Segment: 0, Density: d0[0] + 2}}
	ev3 := postEvent(t, srv, DensitiesRequest{Updates: delta2})
	if ev3.Frame.Path != "delta" {
		t.Fatalf("sparse-delta frame path = %q, want delta", ev3.Frame.Path)
	}
	if ev3.Density == ev2.Density {
		t.Fatal("density fingerprint did not advance")
	}
	// Replaying the same value verbatim changes nothing: reused path.
	ev4 := postEvent(t, srv, DensitiesRequest{Updates: delta2})
	if ev4.Frame.Path != "reused" {
		t.Fatalf("no-op frame path = %q, want reused", ev4.Frame.Path)
	}
}

// TestDensitiesValidation pins the named-field 400s the streaming
// boundary must produce — the regression tests for the wrong-length
// density-vector bug class.
func TestDensitiesValidation(t *testing.T) {
	srv := New()
	net := testNet(t)
	d0 := net.Densities()

	valid := DensitiesRequest{Network: net, Densities: d0}
	cases := []struct {
		name string
		req  interface{}
		want string // substring the 400 body must contain
	}{
		{"trailing garbage", withTail(t, valid, " garbage"), "trailing data"},
		{"trailing document", withTail(t, valid, `{"k":3}`), "trailing data"},
		{"duplicate densities", withMember(t, valid, `"densities":[]`), `duplicate member \"densities\"`},
		{"no stream", DensitiesRequest{Densities: d0},
			"network: required on the first call"},
		{"both fields", DensitiesRequest{Network: net, Densities: d0,
			Updates: roadnet.DensityDelta{{Segment: 0, Density: 1}}},
			"mutually exclusive"},
		{"neither field", DensitiesRequest{Network: net},
			"densities or updates"},
		{"delta before vector", DensitiesRequest{Network: net,
			Updates: roadnet.DensityDelta{{Segment: 0, Density: 1}}},
			"full densities vector"},
		{"wrong length", DensitiesRequest{Network: net, Densities: d0[:3]},
			"densities: 3 values for"},
		{"bad mode", DensitiesRequest{Network: net, Mode: "sideways", Densities: d0},
			"unknown mode"},
	}
	for _, tc := range cases {
		rec := post(t, srv, "/v1/densities", tc.req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body=%s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: body %q does not name the field (%q)", tc.name, rec.Body.String(), tc.want)
		}
	}
	// drift_threshold is not a field, so strict decoding refuses it.
	rec := post(t, srv, "/v1/densities", map[string]interface{}{"network": net, "densities": d0, "drift_threshold": 0.5})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "drift_threshold") {
		t.Errorf("drift_threshold: %d %q, want 400 naming the unknown field", rec.Code, rec.Body.String())
	}

	// Out-of-range and non-finite updates, against an established stream.
	if rec := post(t, srv, "/v1/densities", DensitiesRequest{Network: net, Densities: d0}); rec.Code != http.StatusOK {
		t.Fatalf("establishing stream failed: %s", rec.Body.String())
	}
	rec = post(t, srv, "/v1/densities", DensitiesRequest{
		Updates: roadnet.DensityDelta{{Segment: len(net.Segments), Density: 1}}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "updates[0].segment") {
		t.Fatalf("out-of-range update = %d %q, want 400 naming updates[0].segment", rec.Code, rec.Body.String())
	}
	rec = post(t, srv, "/v1/densities", DensitiesRequest{
		Updates: roadnet.DensityDelta{{Segment: 0, Density: -1}}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "updates[0].density") {
		t.Fatalf("negative update = %d %q, want 400 naming updates[0].density", rec.Code, rec.Body.String())
	}
}

// TestDensitiesInvalidatesCache: after a density step supersedes a
// generation, a partition request for the OLD densities must recompute —
// a cache hit on the invalidated entry is exactly the staleness failure
// the fingerprint tags exist to prevent.
func TestDensitiesInvalidatesCache(t *testing.T) {
	srv := NewWith(Config{CacheMaxBytes: 8 << 20})
	net := testNet(t)
	d0 := net.Densities()

	// Establish the stream, then warm the cache for generation d0.
	postEvent(t, srv, DensitiesRequest{Network: net, Scheme: "AG", K: 3, Densities: d0})
	preq := PartitionRequest{Network: net, K: 3, Scheme: "AG", Seed: 1}
	if rec := post(t, srv, "/v1/partition", preq); rec.Header().Get(CacheHeader) != "miss" {
		t.Fatalf("first partition: cache = %q, want miss", rec.Header().Get(CacheHeader))
	}
	if rec := post(t, srv, "/v1/partition", preq); rec.Header().Get(CacheHeader) != "hit" {
		t.Fatalf("second partition: cache = %q, want hit", rec.Header().Get(CacheHeader))
	}

	// The stream moves on: generation d0 is superseded.
	postEvent(t, srv, DensitiesRequest{
		Updates: roadnet.DensityDelta{{Segment: 1, Density: d0[1] + 1}}})

	// The same request must now recompute (the entry was dropped), not
	// serve the stale generation from memory.
	if rec := post(t, srv, "/v1/partition", preq); rec.Header().Get(CacheHeader) != "miss" {
		t.Fatalf("post-invalidation partition: cache = %q, want miss (stale hit)", rec.Header().Get(CacheHeader))
	}
}

// readSSE consumes one SSE event (event: + data: lines) from the scanner.
func readSSE(t *testing.T, sc *bufio.Scanner) (event, data string) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			return event, data
		}
	}
	t.Fatalf("SSE stream ended early: %v", sc.Err())
	return "", ""
}

// TestWatchStreamsEvents exercises the full SSE loop over a real HTTP
// server: subscribe, receive the replayed last event, receive a live
// event, then disconnect — all under -race in the suite.
func TestWatchStreamsEvents(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	net := testNet(t)
	d0 := net.Densities()

	// One event exists before the watcher connects: it must be replayed.
	first := postEvent(t, srv, DensitiesRequest{Network: net, Scheme: "AG", K: 3, Densities: d0})

	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	event, data := readSSE(t, sc)
	if event != "repartition" {
		t.Fatalf("replayed event type = %q", event)
	}
	var ev RepartitionEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != first.Seq {
		t.Fatalf("replayed seq = %d, want %d", ev.Seq, first.Seq)
	}

	// A live step must arrive while connected. Post from a goroutine so
	// a delivery bug would fail the read below rather than deadlock.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postEvent(t, srv, DensitiesRequest{
			Updates: roadnet.DensityDelta{{Segment: 0, Density: d0[0] + 1}}})
	}()
	event, data = readSSE(t, sc)
	wg.Wait()
	if event != "repartition" {
		t.Fatalf("live event type = %q", event)
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != first.Seq+1 {
		t.Fatalf("live seq = %d, want %d", ev.Seq, first.Seq+1)
	}
}

// TestWatchDisconnectReleasesSubscriber: closing the client connection
// must unregister the subscriber (no goroutine or hub leak). The test
// constructs the service directly so it can observe the hub.
func TestWatchDisconnectReleasesSubscriber(t *testing.T) {
	svc, err := newService(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	// The subscription preamble proves the handler has registered.
	buf := make([]byte, 16)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := subscriberCount(svc); got != 1 {
		t.Fatalf("subscribers after connect = %d, want 1", got)
	}
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for subscriberCount(svc) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not released after disconnect: %d", subscriberCount(svc))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func subscriberCount(s *service) int {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return len(s.hub.subs)
}
