package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// creating series, updating them and rendering concurrently — and then
// checks the totals. Run under -race this is the registry's
// race-cleanliness proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("test_ops_total", "ops", "worker", string(rune('a'+g%4))).Inc()
				r.Gauge("test_level", "level").Set(float64(i))
				r.Timer("test_stage_seconds", "stages", "stage", "s").Observe(time.Microsecond)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	var sum uint64
	for _, lab := range []string{"a", "b", "c", "d"} {
		sum += r.Counter("test_ops_total", "ops", "worker", lab).Value()
	}
	if want := uint64(goroutines * perG); sum != want {
		t.Fatalf("counter sum = %d, want %d", sum, want)
	}
	tm := r.Timer("test_stage_seconds", "stages", "stage", "s")
	if tm.Count() != goroutines*perG {
		t.Fatalf("timer count = %d, want %d", tm.Count(), goroutines*perG)
	}
	if tm.Total() != goroutines*perG*time.Microsecond {
		t.Fatalf("timer total = %v", tm.Total())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var tm *Timer
	c.Inc()
	g.Set(1)
	tm.Observe(time.Second)
	tm.Start().End()
	if c.Value() != 0 || g.Value() != 0 || tm.Count() != 0 || tm.Mean() != 0 || tm.Max() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	Span{}.End() // zero span is inert
}

func TestTimerStats(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("t_seconds", "t")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(4 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("count = %d", tm.Count())
	}
	if tm.Total() != 6*time.Millisecond {
		t.Fatalf("total = %v", tm.Total())
	}
	if tm.Mean() != 3*time.Millisecond {
		t.Fatalf("mean = %v", tm.Mean())
	}
	if tm.Max() != 4*time.Millisecond {
		t.Fatalf("max = %v", tm.Max())
	}
}

func TestLabelOrderIndependence(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "p", "1", "q", "2")
	b := r.Counter("x_total", "x", "q", "2", "p", "1")
	if a != b {
		t.Fatal("label order created distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("clash", "g")
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	tm := r.Timer("t_seconds", "t")
	c.Add(5)
	tm.Observe(time.Second)
	r.Reset()
	if c.Value() != 0 || tm.Count() != 0 || tm.Total() != 0 || tm.Max() != 0 {
		t.Fatal("Reset left residue")
	}
	c.Inc() // pointers handed out earlier keep working
	if c.Value() != 1 {
		t.Fatal("counter dead after Reset")
	}
}

func TestWriteStageTable(t *testing.T) {
	// The default registry is process-global; scope this test's readings
	// by resetting it first.
	Default().Reset()
	StageTimer("road_graph_build").Observe(10 * time.Millisecond)
	StageTimer("spectral_cut").Observe(30 * time.Millisecond)
	StageTimer("eigendecompose").Observe(20 * time.Millisecond) // nested
	StageTimer("embed_kmeans").Observe(5 * time.Millisecond)    // nested
	StageTimer("k_reduce").Observe(4 * time.Millisecond)        // nested
	defer Default().Reset()

	var sb strings.Builder
	if err := WriteStageTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"road_graph_build", "spectral_cut", "eigendecompose", "embed_kmeans", "k_reduce", "pipeline total", "25.0%", "75.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("stage table missing %q:\n%s", want, out)
		}
	}
	// Nested stages carry no share and list as module 3, in canonical
	// order after the eigendecomposition.
	nested := []string{"eigendecompose", "embed_kmeans", "k_reduce"}
	last := -1
	for i, line := range strings.Split(out, "\n") {
		for _, name := range nested {
			if strings.Contains(line, name) {
				if !strings.HasSuffix(strings.TrimSpace(line), "-") || !strings.HasPrefix(line, "3 ") {
					t.Errorf("nested stage %s: %q", name, line)
				}
				if i <= last {
					t.Errorf("stage %s out of canonical order:\n%s", name, out)
				}
				last = i
			}
		}
	}
}
