package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the exact text exposition for a registry
// with all three kinds, multiple labeled series, and escaping.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("roadpart_http_requests_total", "Requests served.", "path", "/v1/sweep", "code", "200").Add(3)
	r.Counter("roadpart_http_requests_total", "Requests served.", "path", "/v1/sweep", "code", "400").Add(1)
	r.Gauge("roadpart_build_info", "Build info.").Set(1)
	r.Timer("roadpart_stage_duration_seconds", "Stage time.", "stage", "spectral_cut").Observe(1500 * time.Millisecond)
	r.Counter("weird_total", `quote " slash \ newline`+"\n", "k", `v"w\x`+"\n").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP roadpart_build_info Build info.
# TYPE roadpart_build_info gauge
roadpart_build_info 1
# HELP roadpart_http_requests_total Requests served.
# TYPE roadpart_http_requests_total counter
roadpart_http_requests_total{code="200",path="/v1/sweep"} 3
roadpart_http_requests_total{code="400",path="/v1/sweep"} 1
# HELP roadpart_stage_duration_seconds Stage time.
# TYPE roadpart_stage_duration_seconds summary
roadpart_stage_duration_seconds_sum{stage="spectral_cut"} 1.5
roadpart_stage_duration_seconds_count{stage="spectral_cut"} 1
# HELP weird_total quote " slash \\ newline\n
# TYPE weird_total counter
weird_total{k="v\"w\\x\n"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusPoolGolden pins the exposition of the buffer-pool
// families exactly as NewPoolTally registers them (same family names and
// help strings), so the /v1/metrics surface documented in docs/API.md
// cannot drift silently.
func TestPrometheusPoolGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(PoolEventsFamily, poolEventsHelp, "pool", "eigen_workspace", "result", "hit").Add(41)
	r.Counter(PoolEventsFamily, poolEventsHelp, "pool", "eigen_workspace", "result", "miss").Add(1)
	r.Counter(PoolEventsFamily, poolEventsHelp, "pool", "kmeans_nd", "result", "hit").Add(7)
	r.Counter(PoolBytesFamily, poolBytesHelp, "pool", "eigen_workspace").Add(1 << 20)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP roadpart_pool_bytes_reused_total Bytes served from reused pooled buffers instead of fresh allocations.
# TYPE roadpart_pool_bytes_reused_total counter
roadpart_pool_bytes_reused_total{pool="eigen_workspace"} 1048576
# HELP roadpart_pool_events_total Scratch-buffer pool lookups by pool and result (hit = reused, miss = freshly allocated).
# TYPE roadpart_pool_events_total counter
roadpart_pool_events_total{pool="eigen_workspace",result="hit"} 41
roadpart_pool_events_total{pool="eigen_workspace",result="miss"} 1
roadpart_pool_events_total{pool="kmeans_nd",result="hit"} 7
`
	if got := sb.String(); got != want {
		t.Fatalf("pool exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPoolTallyCounts exercises the PoolTally fast path against the
// default registry and checks the three series move as documented: a
// hit bumps events{result="hit"} and, for a nonzero size, bytes-reused;
// a miss bumps only events{result="miss"}.
func TestPoolTallyCounts(t *testing.T) {
	tally := NewPoolTally("obs_test_pool")
	tally.Miss()
	tally.Hit(256)
	tally.Hit(0) // zero-byte hit must not move the bytes counter

	find := func(family, result string) float64 {
		t.Helper()
		for _, fam := range Default().Snapshot() {
			if fam.Name != family {
				continue
			}
			for _, s := range fam.Series {
				if s.Labels["pool"] != "obs_test_pool" {
					continue
				}
				if result != "" && s.Labels["result"] != result {
					continue
				}
				if s.Value == nil {
					t.Fatalf("%s series has nil value", family)
				}
				return *s.Value
			}
		}
		t.Fatalf("no %s series for obs_test_pool (result=%q)", family, result)
		return 0
	}
	if got := find(PoolEventsFamily, "hit"); got != 2 {
		t.Fatalf("hit count = %v, want 2", got)
	}
	if got := find(PoolEventsFamily, "miss"); got != 1 {
		t.Fatalf("miss count = %v, want 1", got)
	}
	if got := find(PoolBytesFamily, ""); got != 256 {
		t.Fatalf("bytes reused = %v, want 256", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "count", "x", "1").Add(2)
	r.Timer("t_seconds", "timer").Observe(4 * time.Millisecond)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d families, want 2", len(snap))
	}
	if snap[0].Name != "c_total" || snap[0].Kind != "counter" {
		t.Fatalf("family 0 = %+v", snap[0])
	}
	if v := snap[0].Series[0].Value; v == nil || *v != 2 {
		t.Fatalf("counter value = %v", v)
	}
	if snap[0].Series[0].Labels["x"] != "1" {
		t.Fatalf("labels = %v", snap[0].Series[0].Labels)
	}
	ts := snap[1].Series[0]
	if ts.Count != 1 || ts.TotalMs != 4 || ts.MeanMs != 4 || ts.MaxMs != 4 {
		t.Fatalf("timer series = %+v", ts)
	}

	// The snapshot must marshal cleanly — it is the /v1/stats body.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramExposition pins a histogram's text exposition — cumulative
// buckets with an le label after the series labels, +Inf last, then sum
// and count — its snapshot, and Reset.
func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("roadpart_residual", "Residuals.", []float64{1e-8, 1e-4}, "op", "alpha")
	for _, v := range []float64{1e-10, 1e-8, 1e-6, 0.5} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP roadpart_residual Residuals.
# TYPE roadpart_residual histogram
roadpart_residual_bucket{op="alpha",le="1e-08"} 2
roadpart_residual_bucket{op="alpha",le="0.0001"} 3
roadpart_residual_bucket{op="alpha",le="+Inf"} 4
roadpart_residual_sum{op="alpha"} 0.5000010101
roadpart_residual_count{op="alpha"} 4
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	snap := r.Snapshot()
	ser := snap[0].Series[0]
	if snap[0].Kind != "histogram" || ser.Count != 4 || len(ser.Buckets) != 3 ||
		ser.Buckets[2] != (Bucket{LE: "+Inf", Count: 4}) || ser.Buckets[0] != (Bucket{LE: "1e-08", Count: 2}) {
		t.Fatalf("snapshot = %+v", snap[0])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if _, counts := h.Cumulative(); h.Count() != 0 || h.Sum() != 0 || counts[2] != 0 {
		t.Fatalf("Reset left count %d, sum %v, buckets %v", h.Count(), h.Sum(), counts)
	}
}
