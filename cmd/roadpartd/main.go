// Command roadpartd serves the partitioning framework over HTTP.
//
//	roadpartd -addr :8080
//
// Endpoints (JSON bodies; see internal/server and docs/API.md):
//
//	POST /v1/partition  — {"network": {...}, "k": 6, "scheme": "ASG"}
//	POST /v1/sweep      — {"network": {...}, "k_min": 2, "k_max": 12}
//	POST /v1/jobs       — {"op": "partition", "partition": {...}} → 202 +
//	                      job id; a bounded worker pool runs the compute
//	                      with retry/backoff and a dead-letter state
//	GET  /v1/jobs/{id}  — poll the job state machine; DELETE cancels;
//	                      GET /v1/jobs/{id}/result serves the finished body
//	POST /v1/render     — {"network": {...}, "assign": [...]} → SVG
//	POST /v1/densities  — {"network": {...}, "densities": [...]} then
//	                      {"updates": [{"segment": 17, "density": 0.4}]};
//	                      each call advances the incremental repartitioning
//	                      stream and returns the resulting frame
//	GET  /v1/watch      — Server-Sent Events feed of the stream's
//	                      repartition events (long-lived; raise or zero
//	                      -write-timeout for watchers that must outlive it)
//	GET  /v1/healthz
//	GET  /v1/metrics    — Prometheus text exposition
//	GET  /v1/stats      — JSON metrics snapshot + process info
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ for CPU
// and heap profiling of live sweeps (see docs/TUNING.md
// § Observability).
//
// The transport is guarded by -read-header-timeout, -read-timeout,
// -write-timeout and -idle-timeout; the compute behind each request by
// -request-timeout (clients may lower it per request with timeout_ms,
// capped at -max-request-timeout); and total load by -max-inflight,
// -max-queue and -queue-wait (admission control — 429/503 with
// Retry-After once saturated; off by default). docs/TUNING.md § Failure
// modes describes how these degrade under overload.
//
// Repeated identical partition/sweep requests are answered from a
// content-addressed result cache (-cache-max-bytes, 256 MiB by default;
// 0 disables) without consuming a compute slot; responses carry an
// X-Roadpart-Cache: hit|miss header. With -cache-dir the cache also
// persists roadpart-cache/v1 snapshot files and warms from them at
// startup, so a restarted daemon keeps its hot set (see docs/FORMATS.md
// and docs/TUNING.md § Result caching).
//
// With -self and -peers, N daemons form a shared-nothing cluster:
// rendezvous hashing over the result-cache fingerprints assigns each
// (structure, density, config) to exactly one shard, and the other
// shards forward matching requests there, so the cluster's aggregate
// hit rate matches one big daemon's instead of N cold caches. Responses
// crossing the hop carry X-Roadpart-Cache: remote-hit|remote-miss and
// X-Roadpart-Shard names the shard that computed. A dead peer degrades
// hit rate, not availability (the receiving shard computes locally).
// Clients need no changes — any shard answers any request correctly.
// See docs/DISTRIBUTED.md for ring semantics and failure modes.
//
// Async jobs are durable when -jobs-dir is set: submissions and state
// transitions are written to a roadpart-jobs/v1 journal before they are
// acknowledged, and a restarted daemon replays incomplete jobs. The pool
// is tuned by -jobs-workers, -jobs-queue-depth, -jobs-max-attempts,
// -jobs-attempt-timeout, -jobs-retry-base and -jobs-retry-max (see
// docs/TUNING.md § Retries & backoff).
//
// SIGINT or SIGTERM triggers a graceful shutdown: the listener closes
// immediately, in-flight requests get -drain to finish, the job
// subsystem checkpoints interrupted attempts back into the journal, then
// the process exits.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "default worker count for each request's parallel stages, the Lanczos reorthogonalization and Ritz assembly included; a request's workers field overrides it (0 = GOMAXPROCS, 1 = serial)")
	drain := flag.Duration("drain", 30*time.Second, "grace period for in-flight requests on shutdown")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

	// Transport timeouts: protect the listener from slow or stalled
	// clients (slowloris headers, bodies that trickle, readers that
	// never drain the response).
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "time limit for reading request headers")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "time limit for reading an entire request")
	writeTimeout := flag.Duration("write-timeout", 10*time.Minute, "time limit for writing a response (large sweeps take a while)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection limit")

	// Compute budgets and admission: bound the pipeline work behind
	// each request and shed load once saturated (see docs/API.md).
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute, "default compute deadline per request; 0 = none")
	maxRequestTimeout := flag.Duration("max-request-timeout", 10*time.Minute, "cap for client-supplied timeout_ms")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently computing partition/sweep requests; 0 = unlimited")
	maxQueue := flag.Int("max-queue", 16, "max requests queued for a compute slot before shedding with 429")
	queueWait := flag.Duration("queue-wait", 5*time.Second, "max time a queued request waits for a slot before shedding with 503")

	// Result cache: repeated identical partition/sweep requests replay
	// the first response byte for byte instead of recomputing.
	cacheMaxBytes := flag.Int64("cache-max-bytes", 256<<20, "in-memory result cache budget in bytes; 0 disables caching")
	cacheDir := flag.String("cache-dir", "", "directory for roadpart-cache/v1 snapshots; warms the cache on restart (empty = memory only)")

	// Async jobs: POST /v1/jobs runs partitions and sweeps through a
	// bounded worker pool with retry/backoff, journaled for
	// crash-recovery when -jobs-dir is set.
	jobsDir := flag.String("jobs-dir", "", "directory for the roadpart-jobs/v1 journal; replays incomplete jobs on restart (empty = memory only, jobs die with the process)")
	jobWorkers := flag.Int("jobs-workers", 2, "async job worker pool size")
	jobQueueDepth := flag.Int("jobs-queue-depth", 64, "max queued+running async jobs before submissions shed with 429")
	jobMaxAttempts := flag.Int("jobs-max-attempts", 3, "attempts per async job before it dead-letters as failed")
	jobAttemptTimeout := flag.Duration("jobs-attempt-timeout", 0, "compute deadline per job attempt; 0 = inherit -request-timeout")
	jobRetryBase := flag.Duration("jobs-retry-base", time.Second, "base delay between job attempts (doubles per attempt, jittered)")
	jobRetryMax := flag.Duration("jobs-retry-max", time.Minute, "cap on the delay between job attempts")
	multilevel := flag.String("multilevel", "auto", "default multilevel coarsening path for requests that don't set it: auto, on, off (see docs/SCALING.md)")

	// Sharded multi-daemon mode: with -self and -peers set, every
	// content-addressed request is routed to the shard whose rendezvous
	// position owns its fingerprint (docs/DISTRIBUTED.md). Clients stay
	// dumb — any shard answers any request correctly.
	self := flag.String("self", "", "this daemon's advertised base URL, e.g. http://10.0.0.1:8080; enables sharded mode together with -peers")
	peerList := flag.String("peers", "", "comma-separated peer base URLs (the full cluster, with or without -self); every daemon must be started with the same set")
	peerTimeout := flag.Duration("peer-timeout", 0, "time limit for one forwarded peer exchange; 0 = -max-request-timeout plus headroom")
	flag.Parse()

	if _, err := core.ParseMultilevelMode(*multilevel); err != nil {
		log.Fatalf("roadpartd: %v", err)
	}
	var peerURLs []string
	for _, p := range strings.Split(*peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerURLs = append(peerURLs, p)
		}
	}
	if len(peerURLs) > 0 && *self == "" {
		log.Fatalf("roadpartd: -peers requires -self (the daemon must know its own base URL to find itself on the ring)")
	}
	svc, err := server.NewService(server.Config{
		Workers:           *workers,
		Multilevel:        *multilevel,
		DefaultTimeout:    *requestTimeout,
		MaxTimeout:        *maxRequestTimeout,
		MaxInFlight:       *maxInFlight,
		MaxQueue:          *maxQueue,
		QueueWait:         *queueWait,
		CacheMaxBytes:     *cacheMaxBytes,
		CacheDir:          *cacheDir,
		JobDir:            *jobsDir,
		JobWorkers:        *jobWorkers,
		JobQueueDepth:     *jobQueueDepth,
		JobMaxAttempts:    *jobMaxAttempts,
		JobAttemptTimeout: *jobAttemptTimeout,
		JobRetryBase:      *jobRetryBase,
		JobRetryMax:       *jobRetryMax,
		Self:              *self,
		Peers:             peerURLs,
		PeerTimeout:       *peerTimeout,
	})
	if err != nil {
		log.Fatalf("roadpartd: %v", err)
	}
	if *self != "" {
		log.Printf("roadpartd sharded mode: self=%s peers=%s", *self, *peerList)
	}
	if *jobsDir == "" {
		log.Printf("roadpartd jobs are memory-only (set -jobs-dir for a crash-recovery journal)")
	} else {
		log.Printf("roadpartd journaling jobs under %s", *jobsDir)
	}
	var handler http.Handler = svc
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("roadpartd pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("roadpartd listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// ListenAndServe only returns on failure to serve (the graceful
		// path goes through Shutdown below), so this is always fatal.
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("roadpartd received %v, draining for up to %v", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("roadpartd shutdown: %v", err)
			os.Exit(1)
		}
		// Drain the job pool: interrupted attempts checkpoint back into
		// the journal so a restarted daemon re-runs them without burning
		// their retry budget.
		if err := svc.Close(ctx); err != nil {
			log.Printf("roadpartd job drain: %v", err)
		}
		// Shutdown makes ListenAndServe return ErrServerClosed; collect it
		// so the serving goroutine finishes before we exit.
		if err := <-errCh; err != nil && err != http.ErrServerClosed {
			log.Printf("roadpartd serve: %v", err)
		}
		log.Printf("roadpartd shut down cleanly")
	}
}
