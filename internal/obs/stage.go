package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// StageFamily is the timer family holding per-stage pipeline durations,
// labeled stage=<name>. Stage names follow the paper's module structure;
// see Stages.
const StageFamily = "roadpart_stage_duration_seconds"

const stageHelp = "Wall-clock time spent in each partitioning pipeline stage."

// StageInfo describes one canonical pipeline stage for reporting.
type StageInfo struct {
	// Module is the paper module the stage belongs to: "1" (road graph
	// construction), "2" (supergraph mining), "3" (spectral partitioning),
	// or "-" for aggregates that overlap other stages.
	Module string
	// Name is the stage label value.
	Name string
	// Nested marks stages whose time is contained in (or overlaps) other
	// stages; they are excluded from share-of-total accounting.
	Nested bool
}

// Stages is the canonical stage order, mirroring the module rows of the
// paper's Table 3. Instrumentation elsewhere may add stages not listed
// here; WriteStageTable appends them at the end.
var Stages = []StageInfo{
	{Module: "1", Name: "road_graph_build"},
	{Module: "2", Name: "mcg_shortlist"},
	{Module: "2", Name: "full_kmeans"},
	{Module: "2", Name: "stability_split"},
	{Module: "2", Name: "supergraph_merge"},
	// coarsen runs during pipeline construction when the multilevel path
	// engages (docs/SCALING.md); it is a sibling of the module-3 stages,
	// not contained in any of them.
	{Module: "3", Name: "coarsen"},
	{Module: "3", Name: "spectral_cut"},
	{Module: "3", Name: "alpha_cut_refine"},
	// project/refine run once per uncoarsening step of the multilevel
	// path, inside spectral_cut's span.
	{Module: "3", Name: "project", Nested: true},
	{Module: "3", Name: "refine", Nested: true},
	// The eigendecomposition runs under the single-flight cache: inside
	// spectral_cut on a cold call, or under k_sweep warming. Its time is
	// therefore already counted above.
	{Module: "3", Name: "eigendecompose", Nested: true},
	// The k-means over the spectral embedding and the k′→k reduction (or
	// growth) of Algorithm 3 both run inside spectral_cut.
	{Module: "3", Name: "embed_kmeans", Nested: true},
	{Module: "3", Name: "k_reduce", Nested: true},
	// k_sweep spans a whole SweepKCtx call, which contains many
	// spectral_cut/alpha_cut_refine stages.
	{Module: "-", Name: "k_sweep", Nested: true},
}

// StageTimer returns the default registry's timer for one pipeline
// stage. Hot call sites cache the returned *Timer in a package variable
// so recording is one map-free atomic update.
func StageTimer(stage string) *Timer {
	return std.Timer(StageFamily, stageHelp, "stage", stage)
}

// WriteStageTable prints the per-stage breakdown of the default registry
// as a table mirroring the paper's Table 3 layout: one row per stage
// grouped by module, with call counts, total/mean wall-clock time and
// the share of end-to-end pipeline time. Nested stages (whose time is
// contained in another row) are shown but excluded from the share
// denominator. Stages with no observations are omitted.
func WriteStageTable(w io.Writer) error {
	rows, total := stageRows()
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "no stage timings recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %-18s %8s %12s %12s %8s\n",
		"module", "stage", "calls", "total", "mean", "share"); err != nil {
		return err
	}
	for _, row := range rows {
		share := "-"
		if !row.info.Nested && total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(row.timer.Total())/float64(total))
		}
		if _, err := fmt.Fprintf(w, "%-6s %-18s %8d %12s %12s %8s\n",
			row.info.Module, row.info.Name, row.timer.Count(),
			roundDur(row.timer.Total()), roundDur(row.timer.Mean()), share); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-6s %-18s %8s %12s\n", "", "pipeline total", "", roundDur(total))
	return err
}

// stageRow pairs a canonical stage with its recorded timer.
type stageRow struct {
	info  StageInfo
	timer *Timer
}

// stageRows collects the non-empty stage timers in canonical order
// (unknown stages last) plus the non-nested total.
func stageRows() ([]stageRow, time.Duration) {
	std.mu.RLock()
	f := std.families[StageFamily]
	std.mu.RUnlock()
	if f == nil {
		return nil, 0
	}

	byName := make(map[string]*Timer)
	for _, s := range f.sortedSeries() {
		if s.timer.Count() == 0 {
			continue
		}
		for _, l := range s.labels {
			if l.Name == "stage" {
				byName[l.Value] = s.timer
			}
		}
	}

	var rows []stageRow
	var total time.Duration
	for _, info := range Stages {
		t, ok := byName[info.Name]
		if !ok {
			continue
		}
		delete(byName, info.Name)
		rows = append(rows, stageRow{info: info, timer: t})
		if !info.Nested {
			total += t.Total()
		}
	}
	// Unknown stages (not in the canonical list) follow, sorted by name.
	extra := make([]string, 0, len(byName))
	for name := range byName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		rows = append(rows, stageRow{info: StageInfo{Module: "?", Name: name, Nested: true}, timer: byName[name]})
	}
	return rows, total
}

// roundDur trims a duration to a readable precision for tables.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
