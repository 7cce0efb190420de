package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roadpart/internal/gen"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// newTestService builds a Service under cfg and closes it at cleanup, so
// its job workers and retry timers do not outlive the test.
func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	sv, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sv.Close(ctx)
	})
	return sv
}

func testNet(t testing.TB) *roadnet.Network {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 100, TargetSegments: 180, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		t.Fatal(err)
	}
	return net
}

// rawBody is a request body post sends verbatim: a document with
// trailing data or a repeated member name, which encoding/json will not
// produce.
type rawBody string

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withTail returns doc's JSON with tail appended.
func withTail(t *testing.T, doc interface{}, tail string) rawBody {
	t.Helper()
	return rawBody(mustJSON(t, doc) + tail)
}

// withMember returns doc's JSON object with member (`"name":value`)
// added as its last member.
func withMember(t *testing.T, doc interface{}, member string) rawBody {
	t.Helper()
	return rawBody(strings.TrimSuffix(mustJSON(t, doc), "}") + "," + member + "}")
}

func post(t *testing.T, srv http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := body.(rawBody); ok {
		buf.WriteString(string(raw))
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	srv := newTestService(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Fatal("healthz body wrong")
	}
	// Wrong method.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz status = %d", rec.Code)
	}
}

func TestPartitionEndpoint(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	rec := post(t, srv, "/v1/partition", PartitionRequest{Network: net, K: 3, Scheme: "AG", Seed: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var resp PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 3 {
		t.Fatalf("K = %d, want 3", resp.K)
	}
	if len(resp.Assign) != len(net.Segments) {
		t.Fatalf("assign covers %d of %d segments", len(resp.Assign), len(net.Segments))
	}
	if resp.Report.ANS <= 0 {
		t.Fatalf("report missing: %+v", resp.Report)
	}
	if resp.Timing.TotalMs <= 0 {
		t.Fatal("timing missing")
	}
}

func TestPartitionEndpointDeterministic(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	body := PartitionRequest{Network: net, K: 3, Scheme: "AG", Seed: 9}
	a := post(t, srv, "/v1/partition", body)
	b := post(t, srv, "/v1/partition", body)
	var ra, rb PartitionResponse
	json.Unmarshal(a.Body.Bytes(), &ra)
	json.Unmarshal(b.Body.Bytes(), &rb)
	for i := range ra.Assign {
		if ra.Assign[i] != rb.Assign[i] {
			t.Fatal("service should be deterministic in seed")
		}
	}
}

func TestPartitionEndpointErrors(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	ok := PartitionRequest{Network: net, K: 2, Scheme: "AG"}
	// Two halves that encoding/json would merge into one valid network.
	halves := fmt.Sprintf(`{"network":{"Intersections":%s},"network":{"Segments":%s},"k":2}`,
		mustJSON(t, net.Intersections), mustJSON(t, net.Segments))
	cases := []struct {
		name string
		body interface{}
		want int
		msg  string // substring the error must contain
	}{
		{"missing network", PartitionRequest{K: 3}, http.StatusBadRequest, "missing network"},
		{"bad scheme", PartitionRequest{Network: net, K: 3, Scheme: "XX"}, http.StatusBadRequest, "XX"},
		{"bad k", PartitionRequest{Network: net, K: -1}, http.StatusBadRequest, "bad k=-1"},
		{"unknown field", map[string]interface{}{"nope": 1}, http.StatusBadRequest, `unknown field "nope"`},
		{"trailing garbage", withTail(t, ok, " garbage"), http.StatusBadRequest, "trailing data"},
		{"trailing document", withTail(t, ok, `{"k":99}`), http.StatusBadRequest, "trailing data"},
		{"duplicate k", withMember(t, PartitionRequest{Network: net, K: 99}, `"k":2`), http.StatusBadRequest, `duplicate member "k"`},
		{"duplicate k across case", withMember(t, ok, `"K":3`), http.StatusBadRequest, `duplicate member "K"`},
		{"duplicate network", rawBody(halves), http.StatusBadRequest, `duplicate member "network"`},
		{"duplicate intersection member", rawBody(`{"k":2,"network":` + strings.Replace(mustJSON(t, net), `"ID":0,`, `"ID":0,"ID":0,`, 1) + `}`),
			http.StatusBadRequest, `duplicate member "ID"`},
	}
	for _, c := range cases {
		rec := post(t, srv, "/v1/partition", c.body)
		if rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("%s: missing error envelope", c.name)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, c.msg) {
			t.Errorf("%s: error %s does not name %q", c.name, rec.Body.String(), c.msg)
		}
	}
	// Invalid network payload.
	bad := testNet(t)
	bad.Segments[0].Length = -1
	rec := post(t, srv, "/v1/partition", PartitionRequest{Network: bad, K: 2})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid network: status = %d", rec.Code)
	}
	// GET not allowed.
	get := httptest.NewRecorder()
	srv.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/partition", nil))
	if get.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET partition: status = %d", get.Code)
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	rec := post(t, srv, "/v1/sweep", SweepRequest{Network: net, KMin: 2, KMax: 5, Scheme: "ASG", Seed: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) == 0 {
		t.Fatal("no sweep points")
	}
	if resp.BestK < 2 || resp.BestK > 5 {
		t.Fatalf("best k = %d", resp.BestK)
	}
	// BestK must be the ANS minimum among the points.
	var bestANS float64
	for _, p := range resp.Points {
		if p.K == resp.BestK {
			bestANS = p.Report.ANS
		}
	}
	for _, p := range resp.Points {
		if p.Report.ANS < bestANS {
			t.Fatal("best_k is not the ANS minimum")
		}
	}
}

func TestRenderEndpoint(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	// Densities view.
	rec := post(t, srv, "/v1/render", RenderRequest{Network: net, Title: "densities"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "<svg") {
		t.Fatal("no SVG in body")
	}
	// Partition view.
	assign := make([]int, len(net.Segments))
	for i := range assign {
		assign[i] = i % 3
	}
	rec = post(t, srv, "/v1/render", RenderRequest{Network: net, Assign: assign})
	if rec.Code != http.StatusOK {
		t.Fatalf("partition render status = %d", rec.Code)
	}
	// Wrong-length assignment.
	rec = post(t, srv, "/v1/render", RenderRequest{Network: net, Assign: []int{1}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad assignment status = %d", rec.Code)
	}
	// Missing network.
	rec = post(t, srv, "/v1/render", RenderRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing network status = %d", rec.Code)
	}
}

func TestSweepEndpointDefaultsAndErrors(t *testing.T) {
	srv := newTestService(t, Config{})
	net := testNet(t)
	rec := post(t, srv, "/v1/sweep", SweepRequest{Network: net})
	if rec.Code != http.StatusOK {
		t.Fatalf("defaults: status = %d (%s)", rec.Code, rec.Body.String())
	}
	rec = post(t, srv, "/v1/sweep", SweepRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing network: status = %d", rec.Code)
	}
}

// TestSweepRangeValidation pins where a sweep's k range is checked. An
// empty or non-positive range after defaulting (k_min 2, k_max 10) is a
// malformed request: 400 from /v1/sweep and from job submission alike,
// before any admission slot or mining is spent, with the resolved range
// in the message. A well-formed range whose k_min lies above what the
// mined network supports is only known after mining: 422, naming the
// cap.
func TestSweepRangeValidation(t *testing.T) {
	net := testNet(t)
	bad := []struct {
		name       string
		kMin, kMax int
		want       string
	}{
		{"inverted", 5, 3, "[5,3]"},
		{"negative min", -2, 4, "[-2,4]"},
		{"negative max", 2, -1, "[2,-1]"},
		{"min above default max", 400, 0, "[400,10]"},
	}
	sv := newJobService(t, Config{})
	for _, c := range bad {
		doc := SweepRequest{Network: net, KMin: c.kMin, KMax: c.kMax, Scheme: "ASG", Seed: 1}
		rec := post(t, sv, "/v1/sweep", doc)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: /v1/sweep = %d %s, want 400 naming %s", c.name, rec.Code, rec.Body.String(), c.want)
		}
		rec = post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "sweep", Sweep: &doc})
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: /v1/jobs = %d %s, want 400 naming %s", c.name, rec.Code, rec.Body.String(), c.want)
		}
	}

	// testNet has 180 segments, so the ASG supergraph has fewer than 150
	// supernodes.
	rec := post(t, sv, "/v1/sweep", SweepRequest{Network: net, KMin: 150, KMax: 200, Scheme: "ASG", Seed: 1})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "supports at most k=") {
		t.Fatalf("k_min above the cap: status = %d body=%s, want 422 naming the cap", rec.Code, rec.Body.String())
	}
}

// TestPartitionKValidation pins where a partition's k is checked. A k
// below 1 or above the network's segment count is a malformed request:
// 400 from /v1/partition and from job submission alike, naming the k,
// so no job is accepted that can only fail. A k within the segment
// count but above what the mined supergraph supports is only known
// after mining: 422.
func TestPartitionKValidation(t *testing.T) {
	net := testNet(t)
	sv := newJobService(t, Config{})
	for _, k := range []int{0, -2, len(net.Segments) + 1} {
		doc := PartitionRequest{Network: net, K: k, Scheme: "ASG", Seed: 1}
		want := fmt.Sprintf("bad k=%d", k)
		rec := post(t, sv, "/v1/partition", doc)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("k=%d: /v1/partition = %d %s, want 400 naming %q", k, rec.Code, rec.Body.String(), want)
		}
		rec = post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &doc})
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("k=%d: /v1/jobs = %d %s, want 400 naming %q", k, rec.Code, rec.Body.String(), want)
		}
	}

	// testNet has 180 segments, so the ASG supergraph has fewer than 180
	// supernodes.
	rec := post(t, sv, "/v1/partition", PartitionRequest{Network: net, K: len(net.Segments), Scheme: "ASG", Seed: 1})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("k above the supernode count: status = %d body=%s, want 422", rec.Code, rec.Body.String())
	}
}
