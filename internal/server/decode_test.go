package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"roadpart/internal/jsontest"
)

// TestBodyClaimBeyondSent: a request whose Content-Length claims the
// full 64 MiB limit but which sends ten bytes and stops is a 400, and
// reading it never allocates the claimed size.
func TestBodyClaimBeyondSent(t *testing.T) {
	srv := httptest.NewServer(newTestService(t, Config{}))
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: 67108864\r\n\r\n{\"k\":2,   "); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "reading request") {
		t.Fatalf("short body = %d %s, want 400 reading request", resp.StatusCode, body)
	}

	buf, err := readBody(strings.NewReader(`{"k":2}`), maxBodyBytes)
	if err != nil || string(buf) != `{"k":2}` || cap(buf) > firstChunk {
		t.Fatalf("readBody = %q (cap %d), %v; want the 7 bytes in at most %d", buf, cap(buf), err, firstChunk)
	}
	// A body over the limit fails the read (readRequest answers 400).
	over := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader("0123456789x")), 10)
	var tooLarge *http.MaxBytesError
	if _, err := readBody(over, -1); !errors.As(err, &tooLarge) {
		t.Fatalf("over-limit body: err = %v, want *http.MaxBytesError", err)
	}
}

// TestReadBodySizing: an honest Content-Length below firstChunk gets one
// pooled buffer of the smallest size class that holds the body and the
// byte that meets the end; a larger claim grows to exactly that size; an
// unknown length still reads everything. Every buffer goes back to its
// pool, so later reads land in recycled buffers that still hold earlier
// bodies.
func TestReadBodySizing(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, minBodyClass - 1, minBodyClass, firstChunk - 1, firstChunk, firstChunk + 1, 3*firstChunk + 7} {
		src := bytes.Repeat([]byte{byte('a' + n%26)}, n)
		for _, claimed := range []int64{int64(n), -1} {
			buf, err := readBody(bytes.NewReader(src), claimed)
			if err != nil || !bytes.Equal(buf, src) {
				t.Fatalf("n=%d claimed=%d: read %d bytes, %v", n, claimed, len(buf), err)
			}
			want := n + 1
			if n < firstChunk {
				want = bodyClassSize(n + 1)
			}
			if claimed >= 0 && cap(buf) != want {
				t.Errorf("n=%d: cap %d, want %d", n, cap(buf), want)
			}
			releaseBody(buf)
		}
	}
}

// bodyClassSize is the smallest of 4 KiB and 6 KiB times a power of two
// that holds n bytes.
func bodyClassSize(n int) int {
	for size := 4 << 10; ; size *= 2 {
		if size >= n {
			return size
		}
		if size*3/2 >= n {
			return size * 3 / 2
		}
	}
}

// raceEnabled reports a -race build (race_test.go), whose sync.Pool
// drops a random quarter of the buffers put back.
var raceEnabled bool

// TestAliasHitRecyclesBody: after a warm-up, an alias hit on hot's 187
// kB partition document allocates under 32 KiB, read from the
// runtime.MemStats.TotalAlloc delta over many requests. The body is read
// into a recycled buffer; a fresh one would cost 256 KiB per request.
func TestAliasHitRecyclesBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers put back")
	}
	raw := hotPartitionBody(t)
	srv := newTestService(t, Config{CacheMaxBytes: 64 << 20})
	wantState(t, "set-up", postBytes(t, srv, "/v1/partition", raw), "miss")
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != "hit" {
			t.Fatalf("status %d, %s %q, want 200 hit", rec.Code, CacheHeader, rec.Header().Get(CacheHeader))
		}
	}
	for i := 0; i < 4; i++ {
		serve()
	}
	const n = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 32<<10 {
		t.Fatalf("an alias hit allocates %d bytes, want under %d", per, 32<<10)
	}
}

// TestConcurrentBodiesKeepTheirAnswers: goroutines post different
// documents of one size class at once, so their bodies share recycled
// buffers, and each gets exactly the answer its document got alone.
// Each alternates its bytes, which hit by alias, with a respelling that
// decodes.
func TestConcurrentBodiesKeepTheirAnswers(t *testing.T) {
	net := testNet(t)
	srv := newTestService(t, Config{Workers: 1, CacheMaxBytes: 8 << 20})
	const clients = 6
	var bodies [clients][2][]byte
	var want [clients][]byte
	for g := range bodies {
		raw := marshalBody(t, PartitionRequest{Network: net, K: 2 + g%4, Scheme: "AG", Seed: uint64(g)})
		bodies[g] = [2][]byte{raw, append(bytes.Clone(raw), ' ')}
		rec := postBytes(t, srv, "/v1/partition", raw)
		if rec.Code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", g, rec.Code, rec.Body.String())
		}
		want[g] = rec.Body.Bytes()
	}
	if bodyClass(len(bodies[0][0])+1) != bodyClass(len(bodies[clients-1][1])+1) {
		t.Fatal("the documents fall in different size classes")
	}
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(bodies[g][i%2])))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[g]) {
					t.Errorf("client %d, request %d: status %d, answer differs from the serial one", g, i, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkDecodeRequest decodes the perfbench hot workload's partition
// document (the 2.1k-segment fixture, ~190 kB) with the service's
// decoder, next to encoding/json with DisallowUnknownFields as the
// reference it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	body := hotPartitionBody(b)
	reference := func(dst *PartitionRequest) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(dst)
	}
	var got, want PartitionRequest
	if decodeRequest(body, &got) != nil || reference(&want) != nil || !jsontest.Identical(got, want) {
		b.Fatal("the decoders disagree on the fixture")
	}
	b.Run("cursor", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PartitionRequest
			if err := decodeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PartitionRequest
			if err := reference(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
