package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"roadpart/internal/jobs"
	"roadpart/internal/roadnet"
)

// FuzzJobSubmit posts arbitrary bytes to POST /v1/jobs, the boundary
// where an untrusted document meets the resolve step that every keyed
// entry point shares (sync partition/sweep, job submit, job replay, job
// result). Job attempts are held, so only decoding, validation and
// fingerprinting run. The answer must be 202 or 400, never a 5xx or a
// panic. Each input gets a fresh daemon, closed before the input
// returns: no job state carries over between inputs, and no attempt is
// still winding down in the background while the next one runs.
func FuzzJobSubmit(f *testing.F) {
	// A three-intersection network keeps the seeds small, so the fuzzer
	// spends its time mutating rather than minimizing.
	net := &roadnet.Network{
		Intersections: []roadnet.Intersection{{ID: 0}, {ID: 1, X: 100}, {ID: 2, X: 100, Y: 100}},
		Segments: []roadnet.Segment{
			{ID: 0, From: 0, To: 1, Length: 100, Density: 0.5},
			{ID: 1, From: 1, To: 2, Length: 100, Density: 0.2},
		},
	}
	part := &PartitionRequest{Network: net, K: 2, Scheme: "AG", Seed: 1}
	sweep := &SweepRequest{Network: net, KMin: 2, KMax: 3, Seed: 1}
	for _, req := range []JobSubmitRequest{
		{Op: "partition", Partition: part},
		{Op: "sweep", Sweep: sweep},
		{Op: "partition", Partition: part, Sweep: sweep},
		{Op: "partition", Partition: &PartitionRequest{K: 2}},
	} {
		seed, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	// Attempts are held, and each one reports that it has started.
	started := make(chan struct{}, 1)
	testJobHooks = &jobs.Hooks{ComputeDelay: func(jobs.Spec, int) time.Duration {
		started <- struct{}{}
		return time.Hour
	}}
	f.Cleanup(func() { testJobHooks = nil })
	f.Fuzz(func(t *testing.T, body []byte) {
		sv := newJobService(t, Config{JobWorkers: 1})
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusAccepted:
			// Let the held attempt start before the daemon closes, so
			// every accepted input takes the same path through the
			// manager whatever the scheduler does.
			<-started
		default:
			t.Fatalf("POST /v1/jobs = %d body=%s, want 202 or 400", rec.Code, rec.Body.String())
		}
	})
}
