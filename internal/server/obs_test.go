package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadpart/internal/obs"
)

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestMetricsEndpoint drives one sweep through the service and checks
// that /v1/metrics then exposes valid Prometheus text with per-stage
// durations and per-endpoint request counters — the acceptance path.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	if rec := post(t, srv, "/v1/sweep", SweepRequest{Network: net, KMin: 2, KMax: 4, Scheme: "ASG", Seed: 1}); rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d body=%s", rec.Code, rec.Body.String())
	}

	rec := get(t, srv, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`roadpart_stage_duration_seconds_count{stage="spectral_cut"}`,
		`roadpart_stage_duration_seconds_sum{stage="mcg_shortlist"}`,
		`roadpart_http_requests_total{code="200",path="/v1/sweep"}`,
		`roadpart_http_request_duration_seconds_count{path="/v1/sweep"}`,
		`roadpart_pool_events_total{pool="request_body",result="hit"}`,
		"# TYPE roadpart_stage_duration_seconds summary",
		"# TYPE roadpart_http_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Every line must be a comment or `name[{labels}] value` — a cheap
	// validity check of the exposition format.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Method guard.
	if rec := post(t, srv, "/v1/metrics", struct{}{}); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	if rec := post(t, srv, "/v1/partition", PartitionRequest{Network: net, K: 3, Scheme: "ASG", Seed: 1}); rec.Code != http.StatusOK {
		t.Fatalf("partition status = %d body=%s", rec.Code, rec.Body.String())
	}

	rec := get(t, srv, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("stats body not JSON: %v", err)
	}
	if resp.UptimeSeconds <= 0 || resp.Goroutines <= 0 || resp.GOMAXPROCS <= 0 || resp.GoVersion == "" {
		t.Fatalf("stats process info incomplete: %+v", resp)
	}
	found := false
	for _, m := range resp.Metrics {
		if m.Name == obs.StageFamily {
			found = true
			if m.Kind != "summary" {
				t.Errorf("stage family kind = %q", m.Kind)
			}
		}
	}
	if !found {
		t.Fatalf("stats missing %s", obs.StageFamily)
	}

	if rec := post(t, srv, "/v1/stats", struct{}{}); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST stats status = %d", rec.Code)
	}
}

// TestRequestCounterCodes checks the middleware's status labeling: a bad
// request and an unknown path are both counted, the latter folded into
// path="other".
func TestRequestCounterCodes(t *testing.T) {
	srv := newTestService(t, Config{})
	before400 := obs.Default().Counter("roadpart_http_requests_total", reqCountHelp,
		"path", "/v1/partition", "code", "400").Value()
	beforeOther := obs.Default().Counter("roadpart_http_requests_total", reqCountHelp,
		"path", "other", "code", "404").Value()

	if rec := post(t, srv, "/v1/partition", map[string]any{"bogus": true}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus partition status = %d", rec.Code)
	}
	if rec := get(t, srv, "/v1/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rec.Code)
	}

	after400 := obs.Default().Counter("roadpart_http_requests_total", reqCountHelp,
		"path", "/v1/partition", "code", "400").Value()
	afterOther := obs.Default().Counter("roadpart_http_requests_total", reqCountHelp,
		"path", "other", "code", "404").Value()
	if after400 != before400+1 {
		t.Errorf("400 counter went %d -> %d", before400, after400)
	}
	if afterOther != beforeOther+1 {
		t.Errorf("other/404 counter went %d -> %d", beforeOther, afterOther)
	}
}
