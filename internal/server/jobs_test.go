package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"roadpart/internal/jobs"
)

// newJobService builds a Service for the async-job tests and closes it
// at cleanup so worker goroutines and journals are released.
func newJobService(t testing.TB, cfg Config) *Service {
	t.Helper()
	cfg.JobNoSync = true
	if cfg.JobRetryBase == 0 {
		cfg.JobRetryBase = time.Millisecond
		cfg.JobRetryMax = 2 * time.Millisecond
	}
	return newTestService(t, cfg)
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, srv http.Handler, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d body=%s", id, rec.Code, rec.Body.String())
		}
		var st JobStatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Job.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatusResponse{}
}

// TestJobSubmitPollResult is the async happy path: 202 with Location,
// poll to done, and a result byte-identical to the synchronous
// endpoint's response for the same document.
func TestJobSubmitPollResult(t *testing.T) {
	sv := newJobService(t, Config{CacheMaxBytes: 8 << 20})
	net := testNet(t)
	doc := PartitionRequest{Network: net, K: 3, Scheme: "AG", Seed: 1}

	rec := post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &doc})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d body=%s", rec.Code, rec.Body.String())
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job.State != jobs.StateQueued || sub.Deduplicated {
		t.Fatalf("fresh submission: %+v", sub)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+sub.Job.ID {
		t.Fatalf("Location = %q", loc)
	}

	st := pollJob(t, sv, sub.Job.ID)
	if st.Job.State != jobs.StateDone || st.ResultURL == "" {
		t.Fatalf("terminal status: %+v", st)
	}

	res := httptest.NewRecorder()
	sv.ServeHTTP(res, httptest.NewRequest(http.MethodGet, st.ResultURL, nil))
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d body=%s", res.Code, res.Body.String())
	}
	// The synchronous endpoint must now hit the cache entry the job
	// stored — same fingerprint, same bytes on the wire.
	sync := post(t, sv, "/v1/partition", doc)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync = %d", sync.Code)
	}
	if sync.Header().Get(CacheHeader) != "hit" {
		t.Fatalf("sync request after job missed the cache (%s)", sync.Header().Get(CacheHeader))
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("job result and synchronous response are not byte-identical")
	}
}

// TestJobSubmitValidation checks submissions are validated like the
// synchronous endpoints — at submit time, not attempt time.
func TestJobSubmitValidation(t *testing.T) {
	sv := newJobService(t, Config{})
	net := testNet(t)
	valid := JobSubmitRequest{Op: "partition", Partition: &PartitionRequest{Network: net, K: 3}}
	cases := []struct {
		name string
		body interface{}
	}{
		{"unknown op", JobSubmitRequest{Op: "render"}},
		{"trailing garbage", withTail(t, valid, " garbage")},
		{"trailing document", withTail(t, valid, `{"op":"sweep"}`)},
		{"duplicate op", withMember(t, valid, `"op":"partition"`)},
		{"missing document", JobSubmitRequest{Op: "partition"}},
		{"missing network", JobSubmitRequest{Op: "partition", Partition: &PartitionRequest{K: 3}}},
		{"bad scheme", JobSubmitRequest{Op: "sweep", Sweep: &SweepRequest{Network: net, Scheme: "XXL"}}},
		{"partition with a sweep document", JobSubmitRequest{Op: "partition",
			Partition: &PartitionRequest{Network: net, K: 3}, Sweep: &SweepRequest{Network: net}}},
		{"sweep with a partition document", JobSubmitRequest{Op: "sweep",
			Partition: &PartitionRequest{Network: net, K: 3}, Sweep: &SweepRequest{Network: net}}},
	}
	for _, tc := range cases {
		rec := post(t, sv, "/v1/jobs", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: = %d, want 400 (body=%s)", tc.name, rec.Code, rec.Body.String())
		}
		// A submission carrying both documents must say which op it was
		// read as, so the client knows which document was the stray one.
		var eb errorBody
		if js, ok := tc.body.(JobSubmitRequest); ok && js.Partition != nil && js.Sweep != nil &&
			(json.Unmarshal(rec.Body.Bytes(), &eb) != nil || !strings.Contains(eb.Error, strconv.Quote(js.Op))) {
			t.Errorf("%s: error %s does not name op %q", tc.name, rec.Body.String(), js.Op)
		}
	}
}

// TestJobResultRecomputeSheds fetches the result of a done job whose
// body survives neither in memory nor in a cache (a restart with caching
// off). The fallback recompute is served like a synchronous request, so
// on a saturated daemon the fetch is shed with 429 and a Retry-After —
// not reported as a failed compute — and succeeds once a slot frees.
func TestJobResultRecomputeSheds(t *testing.T) {
	cfg := Config{JobDir: t.TempDir(), MaxInFlight: 1, MaxQueue: 0}
	net := testNet(t)
	first := newJobService(t, cfg)
	rec := post(t, first, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &PartitionRequest{Network: net, K: 3, Seed: 1}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d body=%s", rec.Code, rec.Body.String())
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollJob(t, first, sub.Job.ID); st.Job.State != jobs.StateDone {
		t.Fatalf("job: %+v", st.Job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}

	second := newJobService(t, cfg)
	release, err := second.svc.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	url := "/v1/jobs/" + sub.Job.ID + "/result"
	res := httptest.NewRecorder()
	second.ServeHTTP(res, httptest.NewRequest(http.MethodGet, url, nil))
	if res.Code != http.StatusTooManyRequests || res.Header().Get("Retry-After") == "" {
		t.Fatalf("saturated result fetch: status=%d Retry-After=%q body=%s, want 429 with Retry-After",
			res.Code, res.Header().Get("Retry-After"), res.Body.String())
	}
	release()
	res = httptest.NewRecorder()
	second.ServeHTTP(res, httptest.NewRequest(http.MethodGet, url, nil))
	if res.Code != http.StatusOK {
		t.Fatalf("result fetch with a free slot = %d body=%s", res.Code, res.Body.String())
	}
}

// holdJobs stalls every job attempt (respecting the attempt context)
// so submissions pile up in deterministic states; restored at cleanup.
func holdJobs(t testing.TB) {
	t.Helper()
	testJobHooks = &jobs.Hooks{ComputeDelay: func(jobs.Spec, int) time.Duration { return time.Hour }}
	t.Cleanup(func() { testJobHooks = nil })
}

// TestJobDedupAndCancel submits the same document twice (second is
// answered with the first job) and cancels via DELETE.
func TestJobDedupAndCancel(t *testing.T) {
	// One worker and held attempts keep the second job queued, so the
	// duplicate and the cancel hit stable states.
	holdJobs(t)
	sv := newJobService(t, Config{JobWorkers: 1})
	net := testNet(t)
	hog := PartitionRequest{Network: net, K: 3, Seed: 1}
	target := PartitionRequest{Network: net, K: 4, Seed: 9}

	if rec := post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &hog}); rec.Code != http.StatusAccepted {
		t.Fatalf("hog submit = %d", rec.Code)
	}
	rec := post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &target})
	var first JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	rec = post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &target})
	var dup JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dup); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusAccepted || !dup.Deduplicated || dup.Job.ID != first.Job.ID {
		t.Fatalf("duplicate submit: code=%d %+v (want dedup onto %s)", rec.Code, dup, first.Job.ID)
	}

	del := httptest.NewRecorder()
	sv.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+first.Job.ID, nil))
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE = %d body=%s", del.Code, del.Body.String())
	}
	st := pollJob(t, sv, first.Job.ID)
	if st.Job.State != jobs.StateCancelled {
		t.Fatalf("after DELETE: %+v", st.Job)
	}
	// The result of a cancelled job is a 409, not a 404 or a body.
	res := httptest.NewRecorder()
	sv.ServeHTTP(res, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+first.Job.ID+"/result", nil))
	if res.Code != http.StatusConflict {
		t.Fatalf("result of cancelled job = %d, want 409", res.Code)
	}
}

// TestJobQueueFullRetryAfter fills the job queue and checks the 429
// carries a dynamic Retry-After within the documented bounds.
func TestJobQueueFullRetryAfter(t *testing.T) {
	holdJobs(t)
	sv := newJobService(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	net := testNet(t)
	if rec := post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &PartitionRequest{Network: net, K: 3, Seed: 1}}); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	rec := post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &PartitionRequest{Network: net, K: 4, Seed: 2}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit = %d, want 429 (body=%s)", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	if secs < 1 || secs > 600 {
		t.Fatalf("Retry-After %d outside the pinned [1,600] bounds", secs)
	}
}

// TestJobRestartMidJob is the crash-recovery integration check: a
// daemon is drained mid-workload, a second daemon on the same journal
// and cache directories replays and finishes the jobs, and the result
// it serves is byte-identical to its synchronous endpoint — which in
// turn structurally matches a from-scratch compute on a cache-less
// server (Elapsed, the one wall-clock field, aside).
func TestJobRestartMidJob(t *testing.T) {
	jobDir, cacheDir := t.TempDir(), t.TempDir()
	net := testNet(t)
	doc := PartitionRequest{Network: net, K: 3, Scheme: "AG", Seed: 1}
	cfg := Config{JobDir: jobDir, CacheDir: cacheDir, CacheMaxBytes: 8 << 20, JobNoSync: true,
		JobRetryBase: time.Millisecond, JobRetryMax: 2 * time.Millisecond}

	first, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, first, "/v1/jobs", JobSubmitRequest{Op: "partition", Partition: &doc})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	// Drain immediately: whether the attempt was queued, mid-compute
	// (checkpointed) or already done, the journal must carry the job
	// across the restart.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	second := newJobService(t, cfg)
	st := pollJob(t, second, sub.Job.ID)
	if st.Job.State != jobs.StateDone {
		t.Fatalf("replayed job on restarted daemon: %+v", st.Job)
	}
	res := httptest.NewRecorder()
	second.ServeHTTP(res, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.Job.ID+"/result", nil))
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d body=%s", res.Code, res.Body.String())
	}
	sync := post(t, second, "/v1/partition", doc)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync = %d", sync.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("restarted job result and synchronous response are not byte-identical")
	}

	// Structural identity against a from-scratch compute: same assign,
	// same k′, same quality report — only Elapsed may differ.
	var fromJob, fresh PartitionResponse
	if err := json.Unmarshal(res.Body.Bytes(), &fromJob); err != nil {
		t.Fatal(err)
	}
	plain := post(t, newTestService(t, Config{}), "/v1/partition", doc)
	if plain.Code != http.StatusOK {
		t.Fatalf("fresh sync = %d", plain.Code)
	}
	if err := json.Unmarshal(plain.Body.Bytes(), &fresh); err != nil {
		t.Fatal(err)
	}
	if fromJob.K != fresh.K || fromJob.KPrime != fresh.KPrime || fromJob.Report != fresh.Report {
		t.Fatalf("job result diverges from a from-scratch compute:\njob:   k=%d k'=%d %+v\nfresh: k=%d k'=%d %+v",
			fromJob.K, fromJob.KPrime, fromJob.Report, fresh.K, fresh.KPrime, fresh.Report)
	}
	for i := range fresh.Assign {
		if fromJob.Assign[i] != fresh.Assign[i] {
			t.Fatalf("assignment diverges at segment %d", i)
		}
	}
}

// TestJobSweepGoldenUnchanged runs a sweep through the job path and
// checks it agrees with the synchronous sweep — the FNV-keyed sweep
// behavior is identical whichever door the request comes in.
func TestJobSweepGoldenUnchanged(t *testing.T) {
	sv := newJobService(t, Config{CacheMaxBytes: 8 << 20})
	net := testNet(t)
	doc := SweepRequest{Network: net, KMin: 2, KMax: 5, Seed: 1}
	rec := post(t, sv, "/v1/jobs", JobSubmitRequest{Op: "sweep", Sweep: &doc})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d body=%s", rec.Code, rec.Body.String())
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, sv, sub.Job.ID)
	if st.Job.State != jobs.StateDone {
		t.Fatalf("sweep job: %+v", st.Job)
	}
	res := httptest.NewRecorder()
	sv.ServeHTTP(res, httptest.NewRequest(http.MethodGet, st.ResultURL, nil))
	sync := post(t, sv, "/v1/sweep", doc)
	if sync.Code != http.StatusOK || res.Code != http.StatusOK {
		t.Fatalf("result=%d sync=%d", res.Code, sync.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("sweep job result and synchronous sweep are not byte-identical")
	}
}
