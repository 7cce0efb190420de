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
	"strings"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/jsontest"
	"roadpart/internal/traffic"
)

// TestBodyClaimBeyondSent: a request whose Content-Length claims the
// full 64 MiB limit but which sends ten bytes and stops is a 400, and
// reading it never allocates the claimed size.
func TestBodyClaimBeyondSent(t *testing.T) {
	srv := httptest.NewServer(New())
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

// TestReadBodySizing: an honest Content-Length gets one buffer of that
// size plus the byte that meets the end; an unknown length still reads
// everything.
func TestReadBodySizing(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, firstChunk - 1, firstChunk + 1, 3*firstChunk + 7} {
		src := bytes.Repeat([]byte{'x'}, n)
		for _, claimed := range []int64{int64(n), -1} {
			buf, err := readBody(bytes.NewReader(src), claimed)
			if err != nil || !bytes.Equal(buf, src) {
				t.Fatalf("n=%d claimed=%d: read %d bytes, %v", n, claimed, len(buf), err)
			}
			if claimed >= 0 && cap(buf) != n+1 {
				t.Errorf("n=%d: cap %d, want %d", n, cap(buf), n+1)
			}
		}
	}
}

// BenchmarkDecodeRequest decodes the perfbench hot workload's partition
// document (the 2.1k-segment fixture, ~190 kB) with the service's
// decoder, next to encoding/json with DisallowUnknownFields as the
// reference it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	net, err := gen.City(gen.CityConfig{TargetIntersections: 1200, TargetSegments: 2100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 6, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PartitionRequest{Network: net, K: 6, Scheme: "ASG", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
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
