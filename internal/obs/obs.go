// Package obs is the process-wide observability layer: monotonic stage
// timers, counters, gauges and histograms registered in a registry that
// the HTTP service exposes as Prometheus text (GET /v1/metrics) and JSON
// (GET /v1/stats), and that the CLIs print as a stage-time breakdown
// table mirroring the paper's Table 3 (-timings).
//
// The paper's evaluation (Tables 3–4, Figures 6–7) is entirely about
// per-module timing and quality; this package makes the same accounting
// readable off a live process. Instrumented stages map onto the paper's
// modules: road-graph construction (module 1, Definition 2), supergraph
// mining (module 2, Algorithm 1–2), and spectral partitioning (module 3,
// Algorithm 3 / α-Cut).
//
// Everything is stdlib-only and race-clean: hot-path updates are single
// atomic operations, and the registry maps are guarded by mutexes only
// on series creation and exposition. Instrumentation never feeds back
// into the computation, so partitioning output does not depend on what
// the registry holds.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the metric family type.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time float value.
	KindGauge
	// KindTimer accumulates durations (count, sum, max); it renders as a
	// Prometheus summary (_sum/_count).
	KindTimer
	// KindHistogram counts observations into fixed buckets; it renders
	// as a Prometheus histogram (_bucket/_sum/_count).
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "summary"
	}
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil *Counter is a no-op (so disabled call sites need no
// branches).
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a point-in-time float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates observed durations: count, total and maximum. It is
// the backing store for stage spans.
type Timer struct {
	count atomic.Uint64
	sum   atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.sum.Add(int64(d))
	for {
		cur := t.max.Load()
		if int64(d) <= cur || t.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (t *Timer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sum.Load())
}

// Max returns the largest single observation.
func (t *Timer) Max() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.max.Load())
}

// Mean returns the average observation, zero when nothing was observed.
func (t *Timer) Mean() time.Duration {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return t.Total() / time.Duration(n)
}

// Start opens a span against the timer. For a nil timer the returned
// span is inert and no clock is read.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// Span is one in-flight timed stage. End records the elapsed time; a
// zero Span's End is a no-op. Spans are values — passing them around
// never allocates.
type Span struct {
	t     *Timer
	start time.Time
}

// End closes the span, recording its duration.
func (s Span) End() {
	if s.t != nil {
		s.t.Observe(time.Since(s.start))
	}
}

// Histogram counts observations into buckets with fixed upper bounds
// (each bucket holds the values at most its bound and above the previous
// one; a last, implicit bucket holds the rest, NaN included) and keeps
// their count and sum.
type Histogram struct {
	bounds []float64       // ascending bucket upper bounds
	counts []atomic.Uint64 // per bucket, len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	b := 0
	for b < len(h.bounds) && !(v <= h.bounds[b]) {
		b++
	}
	h.counts[b].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of the observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Cumulative returns the bucket upper bounds, +Inf last, and the number
// of observations at most each bound.
func (h *Histogram) Cumulative() (bounds []float64, counts []uint64) {
	bounds = append(append(bounds, h.bounds...), math.Inf(1))
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		counts = append(counts, n)
	}
	return bounds, counts
}

// Label is one metric dimension (e.g. stage="spectral_cut").
type Label struct{ Name, Value string }

// series is one labeled instance inside a family; exactly one of the
// four value fields is non-nil, matching the family kind.
type series struct {
	labels  []Label // sorted by name
	key     string  // rendered label key, used for dedup and sorting
	counter *Counter
	gauge   *Gauge
	timer   *Timer
	hist    *Histogram
}

// family is one named metric with a help string and a fixed kind.
type family struct {
	name, help string
	kind       Kind

	mu     sync.Mutex
	series map[string]*series
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry or use Default. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// std is the process-wide default registry; package-level helpers and
// the HTTP handlers read it.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns (registering on first use) the counter for name with
// the given label pairs. labelPairs alternate name, value; it panics on
// an odd count or a kind conflict with an existing family — both
// programmer errors.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	return r.metric(name, help, KindCounter, nil, labelPairs).counter
}

// Gauge returns (registering on first use) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	return r.metric(name, help, KindGauge, nil, labelPairs).gauge
}

// Timer returns (registering on first use) the timer for name and labels.
func (r *Registry) Timer(name, help string, labelPairs ...string) *Timer {
	return r.metric(name, help, KindTimer, nil, labelPairs).timer
}

// Histogram returns (registering on first use) the histogram for name
// and labels, with the given ascending bucket upper bounds. A series
// keeps the bounds it was first registered with.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	return r.metric(name, help, KindHistogram, bounds, labelPairs).hist
}

// Reset zeroes every registered series in place. Series stay registered,
// so pointers handed out earlier keep working — tests and the CLIs use
// this to scope readings to one run.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		f.mu.Lock()
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				s.counter.n.Store(0)
			case s.gauge != nil:
				s.gauge.bits.Store(0)
			case s.timer != nil:
				s.timer.count.Store(0)
				s.timer.sum.Store(0)
				s.timer.max.Store(0)
			case s.hist != nil:
				for i := range s.hist.counts {
					s.hist.counts[i].Store(0)
				}
				s.hist.count.Store(0)
				s.hist.sum.Store(0)
			}
		}
		f.mu.Unlock()
	}
}

// metric resolves (or creates) the series for (name, labels).
func (r *Registry) metric(name, help string, kind Kind, bounds []float64, labelPairs []string) *series {
	if len(labelPairs)%2 != 0 {
		panic("obs: odd label pair count for " + name)
	}
	labels := make([]Label, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		labels = append(labels, Label{Name: labelPairs[i], Value: labelPairs[i+1]})
	}
	sortLabels(labels)
	key := labelKey(labels)

	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic("obs: " + name + " registered as " + f.kind.String() + ", requested as " + kind.String())
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: labels, key: key}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds)+1)}
		default:
			s.timer = &Timer{}
		}
		f.series[key] = s
	}
	return s
}

// sortLabels orders labels by name so the same label set always maps to
// the same series regardless of argument order.
func sortLabels(labels []Label) {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Name < labels[j-1].Name; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
}

// labelKey renders labels as they appear inside the exposition braces.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := ""
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return out
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
