package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"roadpart/internal/server"
)

// daemon is one in-process service behind a loopback HTTP server, and
// the keep-alive client that drives it.
type daemon struct {
	svc    *server.Service
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
	// prepared holds the responses to the workload's set-up requests.
	prepared []response
}

// response is what one request returned. Identical bodies a client
// reads share one slice, so replaying a working set holds one copy of
// each distinct response.
type response struct {
	status  int
	cache   string
	latency time.Duration
	body    []byte
	err     error
}

// serviceConfig is roadpartd's default flag values.
func serviceConfig() server.Config {
	return server.Config{
		Multilevel:     "auto",
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     10 * time.Minute,
		MaxQueue:       16,
		QueueWait:      5 * time.Second,
		CacheMaxBytes:  256 << 20,
		JobWorkers:     2,
		JobQueueDepth:  64,
		JobMaxAttempts: 3,
		JobRetryBase:   time.Second,
		JobRetryMax:    time.Minute,
	}
}

// startDaemon builds the service, serves it on a loopback port and
// sends the workload's set-up requests.
func startDaemon(w *workload) (*daemon, error) {
	svc, err := server.NewService(serviceConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close(context.Background())
		return nil, err
	}
	d := &daemon{
		svc: svc,
		srv: &http.Server{
			Handler:           svc,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      10 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     w.clients,
			MaxIdleConnsPerHost: w.clients,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.prepared = d.drive(w.prepare, w.clients, w.mem)
	for i, r := range d.prepared {
		if err := r.failure(); err != nil {
			d.close()
			return nil, fmt.Errorf("set-up request %d: %w", i, err)
		}
	}
	return d, nil
}

// close stops the client, the HTTP server and the service, and waits
// for the server goroutine to return.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // the server goroutine's result is awaited below
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	_ = d.svc.Close(ctx) // the service runs no async jobs here
}

// drive sends reqs in a closed loop from the given number of clients;
// each client takes the next unsent request when its previous one has
// completed. Results are indexed like reqs; response bodies are kept in
// mem.
func (d *daemon) drive(reqs []request, clients int, mem *arena) []response {
	res := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kept := make(map[uint64][]byte)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				res[i] = d.post(reqs[i])
				res[i].body = keep(kept, mem, res[i].body)
			}
		}()
	}
	wg.Wait()
	return res
}

func (d *daemon) post(r request) response {
	req, err := http.NewRequest(http.MethodPost, d.url+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return response{err: err, latency: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, cache: resp.Header.Get(server.CacheHeader), latency: time.Since(t0), body: body, err: err}
}

// keep returns the kept copy of body: the earlier one when a client has
// already read the same bytes, otherwise a new copy in mem.
func keep(kept map[uint64][]byte, mem *arena, body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	if prev, ok := kept[sum]; ok && bytes.Equal(prev, body) {
		return prev
	}
	body = mem.copy(body)
	kept[sum] = body
	return body
}

// failure reports a transport error or a non-200 status.
func (r response) failure() error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	return nil
}
