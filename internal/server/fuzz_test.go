package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"roadpart/internal/jobs"
	"roadpart/internal/jsontest"
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

// FuzzDecodeRequest holds the service's request decoder to
// encoding/json with DisallowUnknownFields, the reader it replaced, on
// all five request documents: every input must be accepted or rejected
// by both and decode to identical values, float bits included. The one
// allowed difference is an input decodeRequest rejects for a repeated
// member name or trailing data.
func FuzzDecodeRequest(f *testing.F) {
	addRequestSeeds(f)
	docs := []func() interface{}{
		func() interface{} { return &PartitionRequest{} },
		func() interface{} { return &SweepRequest{} },
		func() interface{} { return &JobSubmitRequest{} },
		func() interface{} { return &DensitiesRequest{} },
		func() interface{} { return &RenderRequest{} },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		strict := jsontest.StrictOnly(body)
		for _, newDoc := range docs {
			want, got := newDoc(), newDoc()
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			refErr := dec.Decode(want)
			err := decodeRequest(body, got)
			switch {
			case err == nil && refErr != nil:
				t.Fatalf("%T: accepted input encoding/json rejects (%v)", got, refErr)
			case err == nil && strict:
				t.Fatalf("%T: accepted a repeated member name or trailing data", got)
			case err == nil && !jsontest.Identical(got, want):
				t.Fatalf("%T: decoded %+v, encoding/json decoded %+v", got, got, want)
			case err != nil && refErr == nil && !strict:
				t.Fatalf("%T: rejected input encoding/json accepts: %v", got, err)
			}
		}
	})
}

// FuzzKeyedReplay posts every input twice to /v1/partition and twice to
// /v1/sweep on one cache-enabled service, so the second post of a body
// that was answered in full can be an alias hit. Both answers must have
// the same status, content type and body: an alias may replay only what
// decoding, validating and computing the same bytes answered. The one
// exception is a first answer of 408, whose budget depends on the clock.
// Before each post a decoy fills the input's body size class, so the
// input is read into the decoy's recycled buffer: its stale tail is
// spaces before the first post and 'x' before the second, and a read
// past the input's end would answer the two differently.
func FuzzKeyedReplay(f *testing.F) {
	addRequestSeeds(f)
	srv := newTestService(f, Config{Workers: 1, CacheMaxBytes: 8 << 20})
	send := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var decoys [2][]byte
		if len(body) < firstChunk {
			n := classSize(bodyClass(len(body)+1)) - 1
			decoys = [2][]byte{bytes.Repeat([]byte{' '}, n), bytes.Repeat([]byte{'x'}, n)}
		}
		for _, path := range []string{"/v1/partition", "/v1/sweep"} {
			var recs [2]*httptest.ResponseRecorder
			for i := range recs {
				if decoys[i] != nil {
					send(path, decoys[i])
				}
				recs[i] = send(path, body)
			}
			first, second := recs[0], recs[1]
			if first.Code == http.StatusRequestTimeout {
				continue
			}
			if first.Code != second.Code || first.Header().Get("Content-Type") != second.Header().Get("Content-Type") ||
				!bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Fatalf("%s: first %d %s, replay %d %s", path, first.Code, first.Body.String(), second.Code, second.Body.String())
			}
		}
	})
}

// addRequestSeeds adds the request-document corpus: each of the five
// documents encoded in full, plus inputs at the edges of the strict
// decoder (repeated members, trailing data, case folding, number forms,
// escapes and invalid UTF-8).
func addRequestSeeds(f *testing.F) {
	net := &roadnet.Network{
		Intersections: []roadnet.Intersection{{ID: 0}, {ID: 1, X: 100}, {ID: 2, X: 100, Y: -0.5}},
		Segments: []roadnet.Segment{
			{ID: 0, From: 0, To: 1, Length: 100, Density: 0.5},
			{ID: 1, From: 1, To: 2, Length: 1e-9, Density: 2e21},
		},
	}
	part := &PartitionRequest{Network: net, K: 2, Scheme: "AG", StabilityEps: 0.1, Refine: true, Seed: 1 << 63, Workers: 2, Multilevel: "off", TimeoutMs: -1}
	sweep := &SweepRequest{Network: net, KMin: 2, KMax: 3, Scheme: "NSG", Seed: 1, Workers: 1, Multilevel: "on", TimeoutMs: 9}
	for _, doc := range []interface{}{
		part,
		sweep,
		JobSubmitRequest{Op: "partition", Partition: part, Sweep: sweep},
		DensitiesRequest{Network: net, Scheme: "ASG", Mode: "global", K: 3, Seed: 2, Densities: []float64{0.25, 0}, Updates: roadnet.DensityDelta{{Segment: 1, Density: 3}}, TimeoutMs: 5},
		RenderRequest{Network: net, Assign: []int{0, 1}, Title: "café \"<map>\""},
	} {
		seed, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"k":99,"k":2}`))
	f.Add([]byte(`{"K":3,"SCHEME":"AG","K":4} {"k":99}`))
	f.Add([]byte(`{"network":null,"assign":[],"densities":[null,1],"updates":null,"op":"😀\ud800"}`))
	f.Add([]byte(`{"seed":-0,"workers":1.0,"timeout_ms":1e2,"refine":null}`))
	f.Add([]byte(`{"\u212a":3,"\u017fcheme":"AG","Network":{"segments":[]}}`))
	f.Add([]byte(`{"network":{"\u0130ntersections":[]}}`))
	f.Add([]byte(`{"scheme":"\u00e9\ud83d\ude00\ud800x\udc00\\\/\"\b\f\n\r\t"}`))
	f.Add([]byte("{\"title\":\"\xff\xed\xa0\x80\xf0\x9f\x98\x80\"}"))
	f.Add([]byte(`{"stability_eps":-0.0,"k":-0,"timeout_ms":-9223372036854775808,"seed":18446744073709551615}`))
	f.Add([]byte(`{"seed":18446744073709551616,"k":9223372036854775808}`))
	f.Add([]byte(`{"densities":[1e-400,4.9e-324,1.7976931348623157e308,-1E+2]}`))
	f.Add([]byte(`{"assign":[0,-0,7],"title":""}`))
}
