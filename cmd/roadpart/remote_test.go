package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roadpart/internal/gen"
	"roadpart/internal/jobs"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
	"roadpart/internal/traffic"
)

// fastWatchBackoff keeps reconnect tests quick and deterministic.
var fastWatchBackoff = jobs.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 2, Jitter: -1, Seed: 1}

func sseEvent(w http.ResponseWriter, seq int) {
	fmt.Fprintf(w, "event: repartition\ndata: {\"seq\":%d,\"density\":\"t%d\",\"frame\":{\"snapshot\":%d,\"k\":4}}\n\n", seq, seq, seq)
}

// TestWatchReconnectAndDedupe drops the stream after each connection:
// watch must reconnect instead of exiting on the first EOF, must skip
// the replayed event it already printed, and must stop immediately on a
// permanent (4xx) answer.
func TestWatchReconnectAndDedupe(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/watch" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			fmt.Fprint(w, ": subscribed\n\n")
			sseEvent(w, 1)
		case 2:
			sseEvent(w, 1) // replay-on-connect duplicate
			sseEvent(w, 2)
		default:
			http.Error(w, "stream gone", http.StatusNotFound)
		}
	}))
	defer srv.Close()

	var out bytes.Buffer
	err := watch(srv.URL, 0, fastWatchBackoff, &out)
	if !errors.Is(err, errWatchFatal) {
		t.Fatalf("watch err = %v, want errWatchFatal after the 404", err)
	}
	if got := conns.Load(); got != 3 {
		t.Fatalf("connections = %d, want 3 (two streams + the fatal answer)", got)
	}
	for seq, want := range map[string]int{"seq=1 ": 1, "seq=2 ": 1} {
		if got := strings.Count(out.String(), seq); got != want {
			t.Errorf("output has %d %q lines, want %d (replay must dedupe):\n%s", got, seq, want, out.String())
		}
	}
}

// TestWatchGivesUpAfterRetries bounds reconnection: consecutive
// attempts that yield no events stop after -watch-retries.
func TestWatchGivesUpAfterRetries(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var out bytes.Buffer
	err := watch(srv.URL, 2, fastWatchBackoff, &out)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("watch err = %v, want a giving-up error", err)
	}
	if got := conns.Load(); got != 3 {
		t.Fatalf("connections = %d, want the initial attempt + the retry budget of 2", got)
	}
}

func clientTestNet(t *testing.T) *roadnet.Network {
	t.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 60, TargetSegments: 110, Seed: 3})
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

// TestJobClientRoundTrip drives submitJob/pollJob against a real
// in-process daemon: submit accepts, wait polls to done, and the result
// fetch succeeds.
func TestJobClientRoundTrip(t *testing.T) {
	sv, err := server.NewService(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close(context.Background())
	srv := httptest.NewServer(sv)
	defer srv.Close()

	net := clientTestNet(t)
	req := jobRequest(net, "ASG", 4, 0, false, 0, 1, 1, "auto")
	if req.Op != "partition" || req.Partition == nil || req.Partition.K != 4 {
		t.Fatalf("jobRequest built %+v, want a k=4 partition", req)
	}
	if err := submitJob(srv.URL, req, true); err != nil {
		t.Fatalf("submit+wait: %v", err)
	}

	sweep := jobRequest(net, "ASG", 0, 5, true, 0, 1, 1, "auto")
	if sweep.Op != "sweep" || sweep.Sweep == nil || sweep.Sweep.KMax != 5 {
		t.Fatalf("jobRequest built %+v, want a k<=5 sweep", sweep)
	}
	if err := submitJob(srv.URL, sweep, true); err != nil {
		t.Fatalf("sweep submit+wait: %v", err)
	}

	if err := pollJob(srv.URL+"/v1/jobs/j999999-0000000000000000", false); err == nil {
		t.Fatal("polling an unknown job should error")
	}
}
