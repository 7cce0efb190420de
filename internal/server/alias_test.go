package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"roadpart/internal/experiments"
	"roadpart/internal/roadnet"
)

// aliasHits reads the process-wide count of hits served by raw-body
// alias, for op.
func aliasHits(op string) uint64 { return cacheEvents(op, "alias") }

// postBytes posts raw verbatim.
func postBytes(t *testing.T, srv http.Handler, path string, raw []byte) *httptest.ResponseRecorder {
	t.Helper()
	return post(t, srv, path, rawBody(raw))
}

// plainCoord matches an intersection coordinate written without an
// exponent, with the delimiter after it.
var plainCoord = regexp.MustCompile(`"[XY]":-?[0-9]+(\.[0-9]+)?[,}]`)

// reserialize writes the same document differently: members in reverse
// order, indented, and the first plain coordinate spelled with a
// trailing zero (`"X":100` as `"X":100.0`, `"X":1.5` as `"X":1.50`). It
// decodes to the same values, so it resolves to the same key.
func reserialize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var members map[string]json.RawMessage
	if err := json.Unmarshal(raw, &members); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	// Marshal orders members by field; write them in reverse name order.
	slices.Sort(names)
	slices.Reverse(names)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%s", name, members[name])
	}
	buf.WriteByte('}')
	doc := buf.String()
	loc := plainCoord.FindStringIndex(doc)
	if loc == nil {
		t.Fatal("document has no plain coordinate to respell")
	}
	zeros := ".0"
	if strings.Contains(doc[loc[0]:loc[1]], ".") {
		zeros = "0"
	}
	flat := doc[:loc[1]-1] + zeros + doc[loc[1]-1:]
	var out bytes.Buffer
	if err := json.Indent(&out, []byte(flat), "", "\t"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), raw) {
		t.Fatal("variant equals the original bytes")
	}
	return out.Bytes()
}

// wantState fails unless rec is a 200 with the given cache state.
func wantState(t *testing.T, what string, rec *httptest.ResponseRecorder, state string) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d (body: %s)", what, rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(CacheHeader); got != state {
		t.Fatalf("%s: %s = %q, want %q", what, CacheHeader, got, state)
	}
}

// TestAliasHitMatchesDecodedHitD1M1 posts partition and sweep documents
// of the small D1 and M1 datasets: the bytes, a re-serialized variant
// (which takes the alias over), the bytes again (which take it back),
// and the bytes once more. Only the last request is an alias hit, and
// its status, headers and body equal the decoded hit's before it, whose
// body is the first compute's.
func TestAliasHitMatchesDecodedHitD1M1(t *testing.T) {
	srv := cachedServer(t)
	for _, name := range []string{"D1", "M1"} {
		ds, err := experiments.BuildDataset(name, experiments.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			op, path string
			doc      interface{}
		}{
			{"partition", "/v1/partition", PartitionRequest{Network: ds.Net, K: 5, Scheme: "AG", Seed: 7}},
			{"sweep", "/v1/sweep", SweepRequest{Network: ds.Net, KMin: 2, KMax: 5, Scheme: "AG", Seed: 7}},
		} {
			what := name + "/" + tc.op
			raw := []byte(mustJSON(t, tc.doc))
			first := postBytes(t, srv, tc.path, raw)
			wantState(t, what+" first", first, "miss")
			before := aliasHits(tc.op)
			wantState(t, what+" variant", postBytes(t, srv, tc.path, reserialize(t, raw)), "hit")
			decoded := postBytes(t, srv, tc.path, raw)
			wantState(t, what+" decoded", decoded, "hit")
			if got := aliasHits(tc.op) - before; got != 0 {
				t.Fatalf("%s: %d alias hits before the bytes were re-aliased", what, got)
			}
			aliased := postBytes(t, srv, tc.path, raw)
			wantState(t, what+" aliased", aliased, "hit")
			if got := aliasHits(tc.op) - before; got != 1 {
				t.Fatalf("%s: %d alias hits, want 1", what, got)
			}
			if fmt.Sprint(aliased.Header()) != fmt.Sprint(decoded.Header()) {
				t.Fatalf("%s: alias hit headers %v, decoded hit %v", what, aliased.Header(), decoded.Header())
			}
			if !bytes.Equal(aliased.Body.Bytes(), decoded.Body.Bytes()) || !bytes.Equal(aliased.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%s: alias hit body differs from the decoded hit's or the first compute's", what)
			}
		}
	}
}

// TestAliasFollowsLatestBytes: identical bytes are an alias hit, a
// re-serialized variant decodes to the same key and replaces the alias,
// after which the variant is the alias hit and the original decodes.
func TestAliasFollowsLatestBytes(t *testing.T) {
	srv := cachedServer(t)
	raw := []byte(mustJSON(t, PartitionRequest{Network: testNet(t), K: 3, Scheme: "ASG", Seed: 21}))
	variant := reserialize(t, raw)
	first := postBytes(t, srv, "/v1/partition", raw)
	wantState(t, "first", first, "miss")
	for i, step := range []struct {
		body  []byte
		alias uint64 // alias hits the request adds
	}{
		{raw, 1},
		{variant, 0},
		{variant, 1},
		{raw, 0},
		{raw, 1},
	} {
		before, hits := aliasHits("partition"), cacheEvents("partition", "hit")
		rec := postBytes(t, srv, "/v1/partition", step.body)
		what := fmt.Sprintf("request %d", i+2)
		wantState(t, what, rec, "hit")
		if got := aliasHits("partition") - before; got != step.alias {
			t.Fatalf("%s: %d alias hits, want %d", what, got, step.alias)
		}
		if got := cacheEvents("partition", "hit") - hits; got != 1 {
			t.Fatalf("%s: %d hits counted, want 1", what, got)
		}
		if !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: body differs from the first compute's", what)
		}
	}
}

// TestAliasNeverCrossesRoutes posts the same bytes to /v1/sweep, where
// they become an alias, and then to /v1/partition, where they must get
// exactly the answer a cache-less service gives.
func TestAliasNeverCrossesRoutes(t *testing.T) {
	srv := cachedServer(t)
	plain := newTestService(t, Config{Workers: 1})
	// Valid for both documents: a sweep over the default range, and a
	// partition without k, which the compute rejects with a 422.
	raw := []byte(mustJSON(t, map[string]interface{}{"network": testNet(t), "scheme": "AG", "seed": 3}))
	wantState(t, "sweep", postBytes(t, srv, "/v1/sweep", raw), "miss")
	before := aliasHits("sweep")
	wantState(t, "sweep again", postBytes(t, srv, "/v1/sweep", raw), "hit")
	if aliasHits("sweep")-before != 1 {
		t.Fatal("the repeated sweep was not an alias hit")
	}
	sweepAlias, partAlias := aliasHits("sweep"), aliasHits("partition")
	got := postBytes(t, srv, "/v1/partition", raw)
	want := postBytes(t, plain, "/v1/partition", raw)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("sweep bytes on /v1/partition: %d %s, a cache-less service answers %d %s",
			got.Code, got.Body.String(), want.Code, want.Body.String())
	}
	if aliasHits("sweep") != sweepAlias || aliasHits("partition") != partAlias {
		t.Fatal("the partition route used an alias")
	}
}

// TestAliasNeverRecordsFailures posts bodies that fail decoding,
// validation and the compute twice each: both answers are the same
// failure and no alias is recorded.
func TestAliasNeverRecordsFailures(t *testing.T) {
	sv := newTestService(t, Config{Workers: 1, CacheMaxBytes: 32 << 20})
	nw := testNet(t)
	for _, tc := range []struct {
		name, op, path string
		raw            []byte
		code           int
	}{
		{"undecodable", "partition", "/v1/partition", []byte(withMember(t, PartitionRequest{Network: nw, K: 3}, `"kk":1`)), http.StatusBadRequest},
		{"invalid", "partition", "/v1/partition", []byte(mustJSON(t, PartitionRequest{Network: nw, K: 3, Scheme: "XX"})), http.StatusBadRequest},
		{"no network", "sweep", "/v1/sweep", []byte(`{"k_min":2}`), http.StatusBadRequest},
		{"unreachable k", "sweep", "/v1/sweep", []byte(mustJSON(t, SweepRequest{Network: nw, KMin: 400, KMax: 410, Scheme: "AG"})), http.StatusUnprocessableEntity},
	} {
		before := aliasHits(tc.op)
		var bodies []string
		for i := 0; i < 2; i++ {
			rec := postBytes(t, sv, tc.path, tc.raw)
			if rec.Code != tc.code {
				t.Fatalf("%s, request %d: status %d, want %d (body: %s)", tc.name, i+1, rec.Code, tc.code, rec.Body.String())
			}
			bodies = append(bodies, rec.Body.String())
		}
		if bodies[0] != bodies[1] {
			t.Fatalf("%s: answers differ: %s vs %s", tc.name, bodies[0], bodies[1])
		}
		if aliasHits(tc.op) != before {
			t.Fatalf("%s: a failing body was served by alias", tc.name)
		}
		if _, ok := sv.svc.cache.Aliased(sv.svc.cache.Alias(tc.op, tc.raw)); ok {
			t.Fatalf("%s: a failing body was recorded as an alias", tc.name)
		}
	}
}

// TestAliasLeavesWithItsEntry: after an LRU eviction, and after a
// density step invalidates the entry's tag, the same bytes recompute
// (miss) to the identical body.
func TestAliasLeavesWithItsEntry(t *testing.T) {
	nw := testNet(t)
	a := []byte(mustJSON(t, SweepRequest{Network: nw, KMin: 2, KMax: 4, Scheme: "AG", Seed: 1}))
	b := []byte(mustJSON(t, SweepRequest{Network: nw, KMin: 2, KMax: 4, Scheme: "AG", Seed: 2}))
	probe := cachedServer(t)
	size := 0
	for _, raw := range [][]byte{a, b} {
		size = max(size, postBytes(t, probe, "/v1/sweep", raw).Body.Len()-1) // less the '\n' framing
	}

	// A budget that holds one of the two bodies.
	srv := newTestService(t, Config{Workers: 1, CacheMaxBytes: int64(size) + 128})
	first := postBytes(t, srv, "/v1/sweep", a)
	wantState(t, "a", first, "miss")
	wantState(t, "a again", postBytes(t, srv, "/v1/sweep", a), "hit")
	wantState(t, "b", postBytes(t, srv, "/v1/sweep", b), "miss")
	before := aliasHits("sweep")
	evicted := postBytes(t, srv, "/v1/sweep", a)
	wantState(t, "a after eviction", evicted, "miss")
	if aliasHits("sweep") != before || !bytes.Equal(evicted.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("the evicted entry's alias served a hit, or the recompute differs")
	}

	stream := newTestService(t, Config{Workers: 1, CacheMaxBytes: 32 << 20})
	d0 := nw.Densities()
	postEvent(t, stream, DensitiesRequest{Network: nw, Scheme: "AG", K: 3, Densities: d0})
	wantState(t, "stream a", postBytes(t, stream, "/v1/sweep", a), "miss")
	wantState(t, "stream a again", postBytes(t, stream, "/v1/sweep", a), "hit")
	postEvent(t, stream, DensitiesRequest{Updates: roadnet.DensityDelta{{Segment: 1, Density: d0[1] + 1}}})
	before = aliasHits("sweep")
	stale := postBytes(t, stream, "/v1/sweep", a)
	wantState(t, "stream a after the step", stale, "miss")
	if aliasHits("sweep") != before || !bytes.Equal(stale.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("the invalidated entry's alias served a hit, or the recompute differs")
	}
}

// TestAliasConcurrentMix runs 16 goroutines over three documents, two
// re-serialized variants and a bad body, each posted twice in a row,
// under a budget that holds two results: alias hits, decoded hits,
// misses and evictions interleave. Every answer must equal a cache-less
// service's. Its value is running under -race.
func TestAliasConcurrentMix(t *testing.T) {
	nw := testNet(t)
	var bodies [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		raw := []byte(mustJSON(t, SweepRequest{Network: nw, KMin: 2, KMax: 3, Scheme: "AG", Seed: seed}))
		bodies = append(bodies, raw)
		if seed < 3 {
			bodies = append(bodies, reserialize(t, raw))
		}
	}
	bodies = append(bodies, []byte(`{"k_min":2,"k_min":3}`))
	plain := newTestService(t, Config{Workers: 1})
	want := make([]*httptest.ResponseRecorder, len(bodies))
	size := 0
	for i, raw := range bodies {
		want[i] = postBytes(t, plain, "/v1/sweep", raw)
		size = max(size, want[i].Body.Len())
	}
	srv := newTestService(t, Config{Workers: 1, CacheMaxBytes: 2*int64(size+128) + 64})
	alias, miss := aliasHits("sweep"), cacheEvents("sweep", "miss")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j := (g + i*(g%3+1)) % len(bodies)
				for range 2 {
					rec := postBytes(t, srv, "/v1/sweep", bodies[j])
					if rec.Code != want[j].Code || !bytes.Equal(rec.Body.Bytes(), want[j].Body.Bytes()) {
						t.Errorf("goroutine %d, body %d: %d %s, want %d %s", g, j, rec.Code, rec.Body.String(), want[j].Code, want[j].Body.String())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if a, m := aliasHits("sweep")-alias, cacheEvents("sweep", "miss")-miss; a == 0 || m <= 3 {
		t.Fatalf("vacuous: %d alias hits and %d misses for 3 documents", a, m)
	}
}

// TestClusterAliasServesForwardedHop: the owner records the alias of the
// bytes it computed, so the same bytes forwarded by a non-owner are an
// alias hit on the owner, relayed as remote-hit, and sent to the owner
// directly a plain hit, with the first compute's body both times.
func TestClusterAliasServesForwardedHop(t *testing.T) {
	c := startCluster(t, 3)
	body := marshalBody(t, PartitionRequest{Network: testNet(t), Scheme: "AG", K: 3, Seed: 11})
	resp, first := c.do(0, http.MethodPost, "/v1/partition", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d body=%s", resp.StatusCode, first)
	}
	owner := slices.Index(c.urls, resp.Header.Get(ShardHeader))
	if owner < 0 {
		t.Fatalf("served by %q, not a cluster member", resp.Header.Get(ShardHeader))
	}
	via := (owner + 1) % 3
	for _, tc := range []struct {
		via   int
		state string
	}{{via, "remote-hit"}, {owner, "hit"}} {
		before := aliasHits("partition")
		resp, b := c.do(tc.via, http.MethodPost, "/v1/partition", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != tc.state {
			t.Fatalf("via shard %d: %d %s = %q, want 200 %q", tc.via, resp.StatusCode, CacheHeader, resp.Header.Get(CacheHeader), tc.state)
		}
		if resp.Header.Get(ShardHeader) != c.urls[owner] || !bytes.Equal(b, first) {
			t.Fatalf("via shard %d: served by %s with a different body", tc.via, resp.Header.Get(ShardHeader))
		}
		if got := aliasHits("partition") - before; got != 1 {
			t.Fatalf("via shard %d: %d alias hits, want 1", tc.via, got)
		}
	}
}
