package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadpart/internal/gen"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// slowNet returns a network whose partition compute takes hundreds of
// milliseconds, so a 1ms compute budget cannot be beaten even when a
// loaded scheduler delivers the deadline timer tens of milliseconds
// late (the context's Err only flips after the timer fires). The
// matrix-free eigensolver made moderate networks fast, so the fixture
// has to be large; it is built once and shared read-only across tests.
var (
	slowNetOnce sync.Once
	slowNetVal  *roadnet.Network
	slowNetErr  error
)

func slowNet(t *testing.T) *roadnet.Network {
	t.Helper()
	slowNetOnce.Do(func() {
		net, err := gen.City(gen.CityConfig{TargetIntersections: 8000, TargetSegments: 14000, Seed: 3})
		if err != nil {
			slowNetErr = err
			return
		}
		snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: 4})
		if err != nil {
			slowNetErr = err
			return
		}
		if err := traffic.ApplySnapshot(net, snap); err != nil {
			slowNetErr = err
			return
		}
		slowNetVal = net
	})
	if slowNetErr != nil {
		t.Fatal(slowNetErr)
	}
	return slowNetVal
}

// TestRequestTimeoutReturns408 asserts an exceeded compute budget —
// client-requested via timeout_ms — maps to 408 with the deadline in
// the error body, and that the timed-out counter records it.
func TestRequestTimeoutReturns408(t *testing.T) {
	before := reqTimedOut.Value()
	h := newTestService(t, Config{Workers: 1})
	rec := post(t, h, "/v1/partition", PartitionRequest{
		Network: slowNet(t), K: 4, Scheme: "AG", TimeoutMs: 1,
	})
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("408 body %q does not mention the deadline", rec.Body.String())
	}
	if got := reqTimedOut.Value(); got <= before {
		t.Fatalf("roadpart_requests_timed_out_total stayed at %v across a 408", before)
	}
}

// TestServerDefaultTimeoutReturns408 asserts the server-wide default
// deadline applies when the client sends no timeout_ms.
func TestServerDefaultTimeoutReturns408(t *testing.T) {
	h := newTestService(t, Config{Workers: 1, DefaultTimeout: time.Millisecond})
	rec := post(t, h, "/v1/partition", PartitionRequest{
		Network: slowNet(t), K: 4, Scheme: "AG",
	})
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (body: %s)", rec.Code, rec.Body.String())
	}
}

// TestTimeoutMsCappedByMaxTimeout asserts a huge client budget is capped
// at MaxTimeout: under a 1ms cap the request still times out.
func TestTimeoutMsCappedByMaxTimeout(t *testing.T) {
	h := newTestService(t, Config{Workers: 1, MaxTimeout: time.Millisecond})
	rec := post(t, h, "/v1/partition", PartitionRequest{
		Network: slowNet(t), K: 4, Scheme: "AG", TimeoutMs: 600_000,
	})
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 under the MaxTimeout cap (body: %s)", rec.Code, rec.Body.String())
	}
}

// TestSweepTimeoutReturns408 covers the sweep endpoint's deadline path.
func TestSweepTimeoutReturns408(t *testing.T) {
	h := newTestService(t, Config{Workers: 1})
	rec := post(t, h, "/v1/sweep", SweepRequest{
		Network: slowNet(t), KMin: 2, KMax: 8, Scheme: "AG", TimeoutMs: 1,
	})
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (body: %s)", rec.Code, rec.Body.String())
	}
}

// admissionHarness drives s.acquire exactly the way the compute
// handlers do — acquire, block until released, release the slot — so
// tests control exactly how many requests are in flight. finish
// releases every blocked handler exactly once.
type admissionHarness struct {
	handler http.Handler
	release chan struct{}
	started chan struct{}
	once    sync.Once
}

func newAdmissionHarness(cfg Config) *admissionHarness {
	ah := &admissionHarness{
		release: make(chan struct{}),
		started: make(chan struct{}, 64),
	}
	s, err := newService(cfg)
	if err != nil {
		panic(err)
	}
	ah.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		free, err := s.acquire(r.Context())
		if err != nil {
			s.writeComputeFailure(w, 0, err)
			return
		}
		defer free()
		ah.started <- struct{}{}
		<-ah.release
		w.WriteHeader(http.StatusOK)
	})
	return ah
}

func (ah *admissionHarness) do(req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	ah.handler.ServeHTTP(rec, req)
	return rec
}

func (ah *admissionHarness) finish() { ah.once.Do(func() { close(ah.release) }) }

func computeReq() *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/partition", nil)
}

// waitGauge polls until the gauge reaches at least want, so admission
// tests can establish "a request is queued right now" deterministically.
func waitGauge(t *testing.T, want float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for queueGauge.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %v (at %v)", want, queueGauge.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionQueueFullReturns429 fills the single slot and the single
// queue seat, then asserts the next request is shed immediately with 429
// and a Retry-After hint.
func TestAdmissionQueueFullReturns429(t *testing.T) {
	ah := newAdmissionHarness(Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Second})
	defer ah.finish()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the slot
		defer wg.Done()
		ah.do(computeReq())
	}()
	<-ah.started // the slot is now held
	qBase := queueGauge.Value()
	go func() { // occupies the queue seat
		defer wg.Done()
		ah.do(computeReq())
	}()
	waitGauge(t, qBase+1)

	rec := ah.do(computeReq())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body: %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	ah.finish()
	wg.Wait()
}

// TestAdmissionQueueWaitReturns503 holds the only slot past the queue
// wait and asserts the queued request is shed with 503 + Retry-After.
func TestAdmissionQueueWaitReturns503(t *testing.T) {
	ah := newAdmissionHarness(Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 20 * time.Millisecond})
	defer ah.finish()

	done := make(chan struct{})
	go func() {
		defer close(done)
		ah.do(computeReq())
	}()
	<-ah.started

	rec := ah.do(computeReq())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	ah.finish()
	<-done
}

// TestAdmissionQueuedClientGoneReturns499 cancels a queued request's
// context and asserts it leaves the queue with the 499-style status.
func TestAdmissionQueuedClientGoneReturns499(t *testing.T) {
	ah := newAdmissionHarness(Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 30 * time.Second})
	defer ah.finish()

	done := make(chan struct{})
	go func() {
		defer close(done)
		ah.do(computeReq())
	}()
	<-ah.started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rec := ah.do(computeReq().WithContext(ctx))
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body: %s)", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}
	ah.finish()
	<-done
}

// TestAdmissionBypassesCheapEndpoints asserts the non-compute endpoints
// never touch the slot channel: with the only slot held and a zero
// queue, health and metrics still answer 200 while a compute request is
// shed with 429.
func TestAdmissionBypassesCheapEndpoints(t *testing.T) {
	s, err := newService(Config{Workers: 1, MaxInFlight: 1, MaxQueue: 0, QueueWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.slots <- struct{}{} // saturate compute capacity directly
	h := s.handler()

	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/v1/stats"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d while saturated, want 200 (body: %s)", path, rec.Code, rec.Body.String())
		}
	}
	rec := post(t, h, "/v1/partition", PartitionRequest{Network: testNet(t), K: 3, Scheme: "AG"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated partition = %d, want 429 (body: %s)", rec.Code, rec.Body.String())
	}
}

// TestRecoverPanicsReturns500 asserts a panicking handler becomes a 500
// JSON error and increments the recovery counter.
func TestRecoverPanicsReturns500(t *testing.T) {
	before := panicsRecovered.Value()
	h := recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("500 body %q lacks the error envelope", rec.Body.String())
	}
	if got := panicsRecovered.Value(); got != before+1 {
		t.Fatalf("panicsRecovered went %v -> %v, want +1", before, got)
	}
}

// TestRecoverPanicsRethrowsAbortHandler asserts http.ErrAbortHandler
// keeps its net/http meaning: the middleware re-raises it untouched.
func TestRecoverPanicsRethrowsAbortHandler(t *testing.T) {
	h := recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was swallowed")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Fatal("unreachable: handler must panic through")
}

// TestPartitionStillServesUnderDefaults asserts the zero-value Config
// changes nothing: no admission, no deadline, a normal 200.
func TestPartitionStillServesUnderDefaults(t *testing.T) {
	h := newTestService(t, Config{Workers: 1})
	rec := post(t, h, "/v1/partition", PartitionRequest{Network: testNet(t), K: 3, Scheme: "AG"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body: %s)", rec.Code, rec.Body.String())
	}
}

// TestRetryAfterSecs pins the dynamic Retry-After derivation: the
// fallback applies with no latency history, the backlog scales the
// hint linearly, and every output stays inside the documented [1,600]
// clamp no matter how extreme the inputs.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		name                  string
		depth, slots          int
		latSecs, fallbackSecs float64
		want                  int
	}{
		{"no history uses fallback", 10, 4, 0, 5, 5},
		{"no history clamps low", 0, 4, 0, 0, 1},
		{"one ahead one slot", 0, 1, 2, 5, 2},
		{"deep backlog scales", 9, 1, 2, 5, 20},
		{"slots divide the wait", 9, 5, 2, 5, 4},
		{"sub-second rounds up to 1", 0, 8, 0.1, 5, 1},
		{"clamps high at 600", 1000, 1, 120, 5, 600},
		{"zero slots treated as one", 3, 0, 1, 5, 4},
	}
	for _, tc := range cases {
		if got := retryAfterSecs(tc.depth, tc.slots, tc.latSecs, tc.fallbackSecs); got != tc.want {
			t.Errorf("%s: retryAfterSecs(%d,%d,%g,%g) = %d, want %d",
				tc.name, tc.depth, tc.slots, tc.latSecs, tc.fallbackSecs, got, tc.want)
		}
	}
	// Monotone in depth: a longer line never yields a shorter hint.
	prev := 0
	for depth := 0; depth <= 64; depth++ {
		got := retryAfterSecs(depth, 4, 1.5, 5)
		if got < prev {
			t.Fatalf("hint shrank from %d to %d as depth grew to %d", prev, got, depth)
		}
		prev = got
	}
}
