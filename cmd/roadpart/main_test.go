package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/resultcache"
	"roadpart/internal/server"
	"roadpart/internal/traffic"
)

// TestCacheDirSharedWithDaemon pins the -cache-dir contract: a body the
// CLI's partition writes into a store is served by a daemon warmed from
// the same directory as a cache hit, byte for byte.
func TestCacheDirSharedWithDaemon(t *testing.T) {
	net, err := gen.City(gen.CityConfig{TargetIntersections: 100, TargetSegments: 180, Seed: 3})
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
	dir := t.TempDir()
	store, err := resultcache.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 3, Scheme: core.AG, Seed: 1, Workers: 1}
	p, err := core.NewPipeline(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, state, err := partition(store, p, net, cfg); err != nil || state != "miss" {
		t.Fatalf("partition = %q, %v; want a miss", state, err)
	}
	written, ok, err := store.Read(resultcache.PartitionKey(net, cfg))
	if err != nil || !ok {
		t.Fatalf("store.Read after partition: ok=%v err=%v", ok, err)
	}

	sv, err := server.NewService(server.Config{Workers: 1, CacheMaxBytes: 8 << 20, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sv.Close(context.Background()) })
	doc, err := json.Marshal(server.PartitionRequest{Network: net, K: 3, Scheme: "AG", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(doc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/partition = %d body=%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(server.CacheHeader); got != "hit" {
		t.Fatalf("%s = %q, want hit", server.CacheHeader, got)
	}
	if want := append(written, '\n'); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("daemon body differs from the CLI's snapshot:\ndaemon: %s\ncli:    %s", rec.Body.Bytes(), want)
	}
}

func TestWriteAssignment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "parts.csv")
	if err := writeAssignment(path, []int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header + 3", len(lines))
	}
	if lines[0] != "segment_id,partition" || lines[1] != "0,2" {
		t.Fatalf("unexpected contents: %q", lines[:2])
	}
}

func TestLoadNetworkValidation(t *testing.T) {
	if _, err := loadNetwork("", "", ""); err == nil {
		t.Fatal("no input should error")
	}
	if _, err := loadNetwork("x.json", "", "D1"); err == nil {
		t.Fatal("both -net and -preset should error")
	}
	if _, err := loadNetwork("/definitely/missing.json", "", ""); err == nil {
		t.Fatal("missing file should error")
	}
}
