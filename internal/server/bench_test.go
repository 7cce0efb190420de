package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// BenchmarkServeCachedPartition serves a cached partition of the
// 2.1k-segment fixture of perfbench's hot workload (a 187 kB body)
// through the handler. alias posts the same bytes every time, which
// skip decoding; decoded alternates two spellings of the document (one
// and two trailing spaces), so each request finds the alias holding the
// other spelling and decodes, fingerprints and hits.
func BenchmarkServeCachedPartition(b *testing.B) {
	raw := hotPartitionBody(b)
	srv := newTestService(b, Config{CacheMaxBytes: 64 << 20})
	serve := func(body []byte, state string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != state {
			b.Fatalf("status %d, %s %q, want 200 %q", rec.Code, CacheHeader, rec.Header().Get(CacheHeader), state)
		}
	}
	serve(raw, "miss")
	b.Run("alias", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(raw, "hit")
		}
	})
	b.Run("decoded", func(b *testing.B) {
		spellings := [][]byte{append(bytes.Clone(raw), ' '), append(bytes.Clone(raw), ' ', ' ')}
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(spellings[i%2], "hit")
		}
	})
}

// hotNet is the 2.1k-segment fixture of perfbench's hot workload.
func hotNet(tb testing.TB) *roadnet.Network {
	tb.Helper()
	net, err := gen.City(gen.CityConfig{TargetIntersections: 1200, TargetSegments: 2100, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 6, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	if err := traffic.ApplySnapshot(net, snap); err != nil {
		tb.Fatal(err)
	}
	return net
}

// hotPartitionBody is hot's k = 6 partition document on hotNet (187 kB).
func hotPartitionBody(tb testing.TB) []byte {
	tb.Helper()
	raw, err := json.Marshal(PartitionRequest{Network: hotNet(tb), K: 6, Scheme: "ASG", Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}
