package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"roadpart/internal/experiments"
	"roadpart/internal/obs"
	"roadpart/internal/resultcache"
)

// cachedServer builds a handler with a generous in-memory result cache.
func cachedServer(t *testing.T) http.Handler {
	t.Helper()
	return NewWith(Config{Workers: 1, CacheMaxBytes: 32 << 20})
}

// cacheEvents reads the process-wide resultcache event counter.
func cacheEvents(op, result string) uint64 {
	return obs.Default().Counter(resultcache.EventsFamily, "", "op", op, "result", result).Value()
}

// TestPartitionCacheHitByteIdentical is the tentpole's acceptance pin:
// a repeated identical request is answered from cache with a
// byte-identical body and X-Roadpart-Cache: hit.
func TestPartitionCacheHitByteIdentical(t *testing.T) {
	srv := cachedServer(t)
	req := PartitionRequest{Network: testNet(t), K: 3, Scheme: "ASG", Seed: 7}

	first := post(t, srv, "/v1/partition", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first status = %d (body: %s)", first.Code, first.Body.String())
	}
	if got := first.Header().Get(CacheHeader); got != "miss" {
		t.Fatalf("first %s = %q, want miss", CacheHeader, got)
	}

	second := post(t, srv, "/v1/partition", req)
	if second.Code != http.StatusOK {
		t.Fatalf("second status = %d (body: %s)", second.Code, second.Body.String())
	}
	if got := second.Header().Get(CacheHeader); got != "hit" {
		t.Fatalf("second %s = %q, want hit", CacheHeader, got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached body differs from original:\n%s\nvs\n%s", first.Body.String(), second.Body.String())
	}
	if first.Header().Get("Content-Type") != second.Header().Get("Content-Type") {
		t.Fatal("content type drifted between miss and hit")
	}
}

// TestCacheDisabledByDefault: the zero Config must serve exactly as
// before the cache existed — no header, fresh compute every time.
func TestCacheDisabledByDefault(t *testing.T) {
	srv := NewWith(Config{Workers: 1})
	req := PartitionRequest{Network: testNet(t), K: 3, Scheme: "AG"}
	for i := 0; i < 2; i++ {
		rec := post(t, srv, "/v1/partition", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get(CacheHeader); got != "" {
			t.Fatalf("%s = %q with caching disabled, want absent", CacheHeader, got)
		}
	}
}

// TestCacheKeySensitivity: any input that changes the result must miss.
func TestCacheKeySensitivity(t *testing.T) {
	srv := cachedServer(t)
	base := PartitionRequest{Network: testNet(t), K: 3, Scheme: "ASG", Seed: 7}
	if rec := post(t, srv, "/v1/partition", base); rec.Code != http.StatusOK {
		t.Fatalf("warm-up failed: %d", rec.Code)
	}
	for name, req := range map[string]PartitionRequest{
		"seed":   {Network: testNet(t), K: 3, Scheme: "ASG", Seed: 8},
		"k":      {Network: testNet(t), K: 2, Scheme: "ASG", Seed: 7},
		"scheme": {Network: testNet(t), K: 3, Scheme: "AG", Seed: 7},
	} {
		rec := post(t, srv, "/v1/partition", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", name, rec.Code)
		}
		if got := rec.Header().Get(CacheHeader); got != "miss" {
			t.Fatalf("changed %s but got %s = %q, want miss", name, CacheHeader, got)
		}
	}
}

// TestCacheSharedAcrossWorkerCounts: worker count never changes output
// (the repo's determinism guarantee), so it must share cache entries —
// and the cached body proves the guarantee at the HTTP layer.
func TestCacheSharedAcrossWorkerCounts(t *testing.T) {
	srv := cachedServer(t)
	serial := post(t, srv, "/v1/partition", PartitionRequest{
		Network: testNet(t), K: 3, Scheme: "ASG", Seed: 7, Workers: 1,
	})
	parallel := post(t, srv, "/v1/partition", PartitionRequest{
		Network: testNet(t), K: 3, Scheme: "ASG", Seed: 7, Workers: 4,
	})
	if got := parallel.Header().Get(CacheHeader); got != "hit" {
		t.Fatalf("workers=4 after workers=1 got %s = %q, want hit", CacheHeader, got)
	}
	if !bytes.Equal(serial.Body.Bytes(), parallel.Body.Bytes()) {
		t.Fatal("worker count changed the served body")
	}
}

// TestSweepCachedMatchesFreshD1M1 is the satellite's byte-identity
// matrix: for D1/M1 × AG/ASG, the cached sweep body must equal both the
// body that populated it and a fresh compute on a cache-less server.
// (Sweep responses carry no wall-clock fields, so even cross-server
// comparison is exact.)
func TestSweepCachedMatchesFreshD1M1(t *testing.T) {
	if testing.Short() {
		t.Skip("four small-scale sweeps, twice each")
	}
	cached := cachedServer(t)
	fresh := NewWith(Config{Workers: 1})
	for _, dsName := range []string{"D1", "M1"} {
		ds, err := experiments.BuildDataset(dsName, experiments.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{"AG", "ASG"} {
			req := SweepRequest{Network: ds.Net, KMin: 2, KMax: 6, Scheme: scheme, Seed: 7}
			miss := post(t, cached, "/v1/sweep", req)
			hit := post(t, cached, "/v1/sweep", req)
			plain := post(t, fresh, "/v1/sweep", req)
			if miss.Code != http.StatusOK || hit.Code != http.StatusOK || plain.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d/%d/%d", dsName, scheme, miss.Code, hit.Code, plain.Code)
			}
			if got := hit.Header().Get(CacheHeader); got != "hit" {
				t.Fatalf("%s/%s: second sweep %s = %q", dsName, scheme, CacheHeader, got)
			}
			if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
				t.Fatalf("%s/%s: hit body differs from miss body", dsName, scheme)
			}
			if !bytes.Equal(hit.Body.Bytes(), plain.Body.Bytes()) {
				t.Fatalf("%s/%s: cached body differs from a cache-less server's", dsName, scheme)
			}
		}
	}
}

// TestConcurrentIdenticalRequestsSingleCompute drives N identical
// requests concurrently and asserts exactly one compute happened (one
// miss event); everyone else was a hit or coalesced onto the flight.
func TestConcurrentIdenticalRequestsSingleCompute(t *testing.T) {
	srv := cachedServer(t)
	req := PartitionRequest{Network: testNet(t), K: 3, Scheme: "ASG", Seed: 1234}
	missBefore := cacheEvents("partition", "miss")

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, srv, "/v1/partition", req)
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status %d", i, rec.Code)
				return
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	if got := cacheEvents("partition", "miss") - missBefore; got != 1 {
		t.Fatalf("%v computes for %d identical concurrent requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d saw a different body", i)
		}
	}
}

// TestCancelledRequestDoesNotPoisonServerCache: a client abandoning its
// request mid-compute must not leave an error cached — the next
// identical request computes fresh and succeeds.
func TestCancelledRequestDoesNotPoisonServerCache(t *testing.T) {
	srv := cachedServer(t)
	req := PartitionRequest{Network: slowNet(t), K: 4, Scheme: "AG", Seed: 99}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(20 * time.Millisecond) // let the compute start
		cancel()
	}()
	srv.ServeHTTP(rec, httpReq)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled request = %d, want %d (body: %s)", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}

	retry := post(t, srv, "/v1/partition", req)
	if retry.Code != http.StatusOK {
		t.Fatalf("retry after cancellation = %d, want 200 (body: %s)", retry.Code, retry.Body.String())
	}
	if got := retry.Header().Get(CacheHeader); got != "miss" {
		t.Fatalf("retry %s = %q, want miss (the cancelled flight must not have cached anything)", CacheHeader, got)
	}
}

// TestCacheMetricsVisible: the hit/miss/eviction counter family and the
// byte/entry gauges must appear on /v1/metrics after cache traffic.
func TestCacheMetricsVisible(t *testing.T) {
	srv := cachedServer(t)
	req := PartitionRequest{Network: testNet(t), K: 3, Scheme: "AG", Seed: 55}
	post(t, srv, "/v1/partition", req)
	post(t, srv, "/v1/partition", req)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`roadpart_resultcache_events_total{op="partition",result="hit"}`,
		`roadpart_resultcache_events_total{op="partition",result="miss"}`,
		"roadpart_resultcache_bytes",
		"roadpart_resultcache_entries",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("metrics exposition lacks %s", want)
		}
	}
}

// TestCacheWarmsAcrossRestart: a second server over the same -cache-dir
// must answer the first server's request as a hit without recomputing.
func TestCacheWarmsAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	req := PartitionRequest{Network: testNet(t), K: 3, Scheme: "ASG", Seed: 7}

	first, err := NewService(Config{Workers: 1, CacheMaxBytes: 32 << 20, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := post(t, first, "/v1/partition", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status = %d", cold.Code)
	}

	second, err := NewService(Config{Workers: 1, CacheMaxBytes: 32 << 20, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := post(t, second, "/v1/partition", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm status = %d", warm.Code)
	}
	if got := warm.Header().Get(CacheHeader); got != "hit" {
		t.Fatalf("restarted server %s = %q, want hit from disk snapshot", CacheHeader, got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("warmed body differs from the original compute")
	}
}

// TestCacheHitSkipsAdmission: with zero compute capacity, a warmed
// entry still serves — the cache sits in front of admission control.
func TestCacheHitSkipsAdmission(t *testing.T) {
	s, err := newService(Config{Workers: 1, CacheMaxBytes: 32 << 20, MaxInFlight: 1, MaxQueue: 0, QueueWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	req := PartitionRequest{Network: testNet(t), K: 3, Scheme: "AG", Seed: 7}
	if rec := post(t, h, "/v1/partition", req); rec.Code != http.StatusOK {
		t.Fatalf("warm-up status = %d", rec.Code)
	}

	s.slots <- struct{}{} // saturate compute capacity
	hit := post(t, h, "/v1/partition", req)
	if hit.Code != http.StatusOK {
		t.Fatalf("cached request under saturation = %d, want 200 (body: %s)", hit.Code, hit.Body.String())
	}
	if got := hit.Header().Get(CacheHeader); got != "hit" {
		t.Fatalf("%s = %q, want hit", CacheHeader, got)
	}
	// An uncached request is still shed.
	miss := post(t, h, "/v1/partition", PartitionRequest{Network: testNet(t), K: 4, Scheme: "AG", Seed: 8})
	if miss.Code != http.StatusTooManyRequests {
		t.Fatalf("uncached request under saturation = %d, want 429", miss.Code)
	}
	if got := miss.Header().Get(CacheHeader); got != "" {
		t.Fatalf("shed response carries %s = %q, want absent", CacheHeader, got)
	}
}

// TestPartitionResponseStillDecodes guards the response schema the CLI
// and docs promise, including the new k_prime field.
func TestPartitionResponseStillDecodes(t *testing.T) {
	srv := cachedServer(t)
	rec := post(t, srv, "/v1/partition", PartitionRequest{Network: testNet(t), K: 3, Scheme: "ASG"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 3 || len(resp.Assign) == 0 || resp.KPrime < resp.K {
		t.Fatalf("response = k=%d k'=%d assign=%d", resp.K, resp.KPrime, len(resp.Assign))
	}
	if resp.Elapsed == "" {
		t.Fatal("elapsed missing")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["k_prime"]; !ok {
		t.Fatalf("body lacks k_prime: %s", rec.Body.String())
	}
}
