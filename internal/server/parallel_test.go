package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestSweepWorkersDeterministic exercises the request-level workers knob:
// the same sweep request answered serially and on 4 workers must return
// identical best_k and per-k reports.
func TestSweepWorkersDeterministic(t *testing.T) {
	net := testNet(t)
	srv := newTestService(t, Config{})
	run := func(workers int) SweepResponse {
		t.Helper()
		rec := post(t, srv, "/v1/sweep", SweepRequest{
			Network: net, KMin: 2, KMax: 6, Scheme: "AG", Seed: 5, Workers: workers,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, rec.Code, rec.Body.String())
		}
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ref, par := run(1), run(4)
	if par.BestK != ref.BestK {
		t.Fatalf("best_k %d != %d", par.BestK, ref.BestK)
	}
	if len(par.Points) != len(ref.Points) {
		t.Fatalf("%d points != %d", len(par.Points), len(ref.Points))
	}
	for i := range ref.Points {
		if par.Points[i].K != ref.Points[i].K || par.Points[i].Report != ref.Points[i].Report {
			t.Fatalf("point %d differs between workers=1 and workers=4", i)
		}
	}
}

// TestServerDefaultWorkers checks NewService plumbs the server-level default
// and that a request-level override still works on the partition path.
func TestServerDefaultWorkers(t *testing.T) {
	net := testNet(t)
	serial := post(t, newTestService(t, Config{Workers: 1}), "/v1/partition",
		PartitionRequest{Network: net, K: 4, Scheme: "AG", Seed: 9})
	if serial.Code != http.StatusOK {
		t.Fatalf("serial: status %d: %s", serial.Code, serial.Body.String())
	}
	override := post(t, newTestService(t, Config{Workers: 1}), "/v1/partition",
		PartitionRequest{Network: net, K: 4, Scheme: "AG", Seed: 9, Workers: 8})
	if override.Code != http.StatusOK {
		t.Fatalf("override: status %d: %s", override.Code, override.Body.String())
	}
	var a, b PartitionResponse
	if err := json.Unmarshal(serial.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(override.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Fatalf("K %d != %d", a.K, b.K)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment differs at segment %d", i)
		}
	}
}
