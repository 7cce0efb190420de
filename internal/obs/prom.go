package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4). Families are sorted by name and
// series by label key, so the output is deterministic for a given
// registry state. Timers render as summaries: <name>_sum in seconds and
// <name>_count. Histograms render cumulative <name>_bucket series with
// an le label, then <name>_sum and <name>_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			braces := ""
			if s.key != "" {
				braces = "{" + s.key + "}"
			}
			var err error
			switch f.kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, braces, s.counter.Value())
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, braces, formatFloat(s.gauge.Value()))
			case KindHistogram:
				err = writeHistogram(w, f.name, s)
			default:
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braces,
					formatFloat(s.timer.Total().Seconds())); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", f.name, braces, s.timer.Count())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series.
func writeHistogram(w io.Writer, name string, s *series) error {
	prefix := ""
	if s.key != "" {
		prefix = s.key + ","
	}
	bounds, counts := s.hist.Cumulative()
	for i, b := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, prefix, formatFloat(b), counts[i]); err != nil {
			return err
		}
	}
	braces := ""
	if s.key != "" {
		braces = "{" + s.key + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braces, formatFloat(s.hist.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braces, s.hist.Count())
	return err
}

// Metric is one family in a Snapshot.
type Metric struct {
	Name   string   `json:"name"`
	Help   string   `json:"help,omitempty"`
	Kind   string   `json:"kind"`
	Series []Series `json:"series"`
}

// Series is one labeled instance in a Snapshot. Counters and gauges set
// Value; timers set Count/TotalMs/MeanMs/MaxMs; histograms set Value to
// the sum of the observations, Count and Buckets.
type Series struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	TotalMs float64           `json:"total_ms,omitempty"`
	MeanMs  float64           `json:"mean_ms,omitempty"`
	MaxMs   float64           `json:"max_ms,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket: Count observations were at
// most LE ("+Inf" for the last bucket).
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot returns a point-in-time copy of every registered metric,
// ordered like the Prometheus exposition. It is what GET /v1/stats
// serves.
func (r *Registry) Snapshot() []Metric {
	fams := r.sortedFamilies()
	out := make([]Metric, 0, len(fams))
	for _, f := range fams {
		m := Metric{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range f.sortedSeries() {
			var labels map[string]string
			if len(s.labels) > 0 {
				labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					labels[l.Name] = l.Value
				}
			}
			ser := Series{Labels: labels}
			switch f.kind {
			case KindCounter:
				v := float64(s.counter.Value())
				ser.Value = &v
			case KindGauge:
				v := s.gauge.Value()
				ser.Value = &v
			case KindHistogram:
				v := s.hist.Sum()
				ser.Value = &v
				ser.Count = s.hist.Count()
				bounds, counts := s.hist.Cumulative()
				for i, b := range bounds {
					ser.Buckets = append(ser.Buckets, Bucket{LE: formatFloat(b), Count: counts[i]})
				}
			default:
				ser.Count = s.timer.Count()
				ser.TotalMs = durMs(s.timer.Total())
				ser.MeanMs = durMs(s.timer.Mean())
				ser.MaxMs = durMs(s.timer.Max())
			}
			m.Series = append(m.Series, ser)
		}
		out = append(out, m)
	}
	return out
}

// sortedFamilies returns the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns the family's series ordered by label key.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(h string) string {
	out := make([]byte, 0, len(h))
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, h[i])
		}
	}
	return string(out)
}

// durMs converts a duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
