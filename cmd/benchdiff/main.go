// Command benchdiff turns `go test -bench` text output into JSON
// snapshots and compares two snapshots against regression thresholds —
// the repository's benchmark-regression harness (see docs/PERFORMANCE.md).
//
// Snapshot mode parses benchmark text from stdin (or a file) and writes a
// BENCH_<n>.json-style snapshot:
//
//	go test -bench . -benchmem -run '^$' . | benchdiff -snapshot -o BENCH_1.json
//
// Repeated result lines of one benchmark (`go test -count N`) fold into
// one entry holding the median of each measurement.
//
// Compare mode diffs two snapshots and exits non-zero when any benchmark
// present in both regresses beyond the thresholds:
//
//	benchdiff -max-time-regress 0.02 -max-bytes-regress -0.30 BENCH_1.json BENCH_2.json
//
// A negative threshold demands an improvement: -0.30 fails unless the
// metric dropped by at least 30%. -only restricts the diff to matching
// benchmark names (for targeted gates such as the Table 3 speedup check),
// and -min-ratio asserts an intra-snapshot invariant — that one benchmark
// is at least R times slower than another — against the new snapshot:
//
//	benchdiff -only '^BenchmarkTable3$' -max-time-regress -0.40 BENCH_4.json BENCH_5.json
//	benchdiff -min-ratio 'BenchmarkSweepDeep/cold,BenchmarkSweepDeep/warm,1.5' BENCH_5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the persisted form of one benchmark run (the BENCH_<n>.json
// schema documented in docs/FORMATS.md).
type Snapshot struct {
	Schema     string      `json:"schema"` // "roadpart-bench/v1"
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's measurements. Name has the -GOMAXPROCS
// suffix stripped so snapshots from differently sized machines compare.
// Custom b.ReportMetric units (e.g. BenchmarkScale's peakMB heap
// high-water) land in Metrics keyed by their unit string; they are
// recorded in snapshots but not threshold-gated.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

const schemaV1 = "roadpart-bench/v1"

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkFig7-4  1  118969338 ns/op  9743360 B/op  22969 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// procSuffix strips the trailing -GOMAXPROCS from a benchmark name.
var procSuffix = regexp.MustCompile(`-(\d+)$`)

// parseText reads `go test -bench` text output into a Snapshot.
func parseText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Schema: schemaV1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1], Pkg: pkg}
		if pm := procSuffix.FindStringSubmatch(b.Name); pm != nil {
			b.Procs, _ = strconv.Atoi(pm[1])
			b.Name = procSuffix.ReplaceAllString(b.Name, "")
		}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		for _, metric := range strings.Split(strings.TrimSpace(m[4]), "\t") {
			fields := strings.Fields(metric)
			if len(fields) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				continue
			}
			switch fields[1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				// Custom ReportMetric unit: record it verbatim.
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[fields[1]] = v
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	snap.Benchmarks = foldRuns(snap.Benchmarks)
	return snap, nil
}

// foldRuns folds the repeated result lines of each benchmark of a package
// (`go test -count N`) into one entry, in first-appearance order, holding
// the median of every measurement: a single run of a short benchmark on
// a loaded machine can swing by tens of percent.
func foldRuns(bs []Benchmark) []Benchmark {
	type key struct{ pkg, name string }
	runs := map[key][]Benchmark{}
	var keys []key
	for _, b := range bs {
		k := key{b.Pkg, b.Name}
		if runs[k] == nil {
			keys = append(keys, k)
		}
		runs[k] = append(runs[k], b)
	}
	out := make([]Benchmark, 0, len(keys))
	for _, k := range keys {
		rs := runs[k]
		b := rs[0]
		if len(rs) > 1 {
			b.Iterations = int64(median(rs, func(r Benchmark) float64 { return float64(r.Iterations) }))
			b.NsPerOp = median(rs, func(r Benchmark) float64 { return r.NsPerOp })
			b.BytesPerOp = median(rs, func(r Benchmark) float64 { return r.BytesPerOp })
			b.AllocsPerOp = median(rs, func(r Benchmark) float64 { return r.AllocsPerOp })
			b.Metrics = maps.Clone(b.Metrics)
			for unit := range b.Metrics {
				b.Metrics[unit] = median(rs, func(r Benchmark) float64 { return r.Metrics[unit] })
			}
		}
		out = append(out, b)
	}
	return out
}

// median returns the median of f over runs: the middle value, or the
// mean of the two middle values of an even count.
func median(runs []Benchmark, f func(Benchmark) float64) float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = f(r)
	}
	slices.Sort(v)
	h := len(v) / 2
	if len(v)%2 == 1 {
		return v[h]
	}
	return (v[h-1] + v[h]) / 2
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaV1 {
		return nil, fmt.Errorf("%s: unsupported schema %q (want %q)", path, s.Schema, schemaV1)
	}
	return &s, nil
}

// delta is the fractional change from old to new: +0.10 means new is 10%
// higher. A zero old with a nonzero new reports +Inf-like growth as 1.
func delta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

// diffRow is one benchmark's comparison.
type diffRow struct {
	name                 string
	old, new             *Benchmark
	timeDelta, byteDelta float64
	failed               []string
}

// ratioSpec is one parsed -min-ratio assertion: NsPerOp(slow) must be at
// least Ratio times NsPerOp(fast) in the snapshot under check.
type ratioSpec struct {
	Slow, Fast string
	Ratio      float64
}

// parseRatio parses a -min-ratio value of the form "SlowName,FastName,R".
func parseRatio(s string) (ratioSpec, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return ratioSpec{}, fmt.Errorf("-min-ratio %q: want slow,fast,ratio", s)
	}
	r, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || r <= 0 {
		return ratioSpec{}, fmt.Errorf("-min-ratio %q: bad ratio %q", s, parts[2])
	}
	return ratioSpec{Slow: strings.TrimSpace(parts[0]), Fast: strings.TrimSpace(parts[1]), Ratio: r}, nil
}

// checkRatio verifies one ratio assertion against a snapshot: the Slow
// benchmark's ns/op must be >= Ratio × the Fast benchmark's ns/op (i.e.
// Fast is at least Ratio× faster). Both benchmarks must be present.
func checkRatio(s *Snapshot, spec ratioSpec) error {
	var slow, fast *Benchmark
	for i := range s.Benchmarks {
		switch s.Benchmarks[i].Name {
		case spec.Slow:
			slow = &s.Benchmarks[i]
		case spec.Fast:
			fast = &s.Benchmarks[i]
		}
	}
	if slow == nil {
		return fmt.Errorf("min-ratio: benchmark %q not in snapshot", spec.Slow)
	}
	if fast == nil {
		return fmt.Errorf("min-ratio: benchmark %q not in snapshot", spec.Fast)
	}
	if fast.NsPerOp <= 0 {
		return fmt.Errorf("min-ratio: %q has non-positive ns/op", spec.Fast)
	}
	got := slow.NsPerOp / fast.NsPerOp
	if got < spec.Ratio {
		return fmt.Errorf("min-ratio: %s / %s = %.2fx < required %.2fx",
			spec.Slow, spec.Fast, got, spec.Ratio)
	}
	return nil
}

// compare diffs two snapshots. Rows are sorted by name; only benchmarks
// present in both snapshots are threshold-checked. A non-nil only
// restricts the diff to benchmarks whose name matches it.
func compare(oldS, newS *Snapshot, maxTime, maxBytes float64, only *regexp.Regexp) (rows []diffRow, failures int) {
	index := func(s *Snapshot) map[string]*Benchmark {
		m := make(map[string]*Benchmark, len(s.Benchmarks))
		for i := range s.Benchmarks {
			m[s.Benchmarks[i].Name] = &s.Benchmarks[i]
		}
		return m
	}
	oldM, newM := index(oldS), index(newS)
	names := map[string]bool{}
	for n := range oldM {
		names[n] = true
	}
	for n := range newM {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		if only != nil && !only.MatchString(n) {
			continue
		}
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		row := diffRow{name: n, old: oldM[n], new: newM[n]}
		if row.old != nil && row.new != nil {
			row.timeDelta = delta(row.old.NsPerOp, row.new.NsPerOp)
			row.byteDelta = delta(row.old.BytesPerOp, row.new.BytesPerOp)
			if row.timeDelta > maxTime {
				row.failed = append(row.failed, fmt.Sprintf("ns/op %+.1f%% > %+.1f%%", 100*row.timeDelta, 100*maxTime))
			}
			if row.byteDelta > maxBytes {
				row.failed = append(row.failed, fmt.Sprintf("B/op %+.1f%% > %+.1f%%", 100*row.byteDelta, 100*maxBytes))
			}
			if len(row.failed) > 0 {
				failures++
			}
		}
		rows = append(rows, row)
	}
	return rows, failures
}

func runSnapshot(out string, in io.Reader) error {
	snap, err := parseText(in)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func runCompare(w io.Writer, oldPath, newPath string, maxTime, maxBytes float64, only *regexp.Regexp, ratios []ratioSpec) (int, error) {
	oldS, err := loadSnapshot(oldPath)
	if err != nil {
		return 1, err
	}
	newS, err := loadSnapshot(newPath)
	if err != nil {
		return 1, err
	}
	rows, failures := compare(oldS, newS, maxTime, maxBytes, only)
	fmt.Fprintf(w, "%-36s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "Δns", "ΔB/op")
	for _, r := range rows {
		switch {
		case r.old == nil:
			fmt.Fprintf(w, "%-36s %14s %14.0f %9s %9s  (added)\n", r.name, "-", r.new.NsPerOp, "-", "-")
		case r.new == nil:
			fmt.Fprintf(w, "%-36s %14.0f %14s %9s %9s  (removed)\n", r.name, r.old.NsPerOp, "-", "-", "-")
		default:
			status := ""
			if len(r.failed) > 0 {
				status = "  FAIL: " + strings.Join(r.failed, "; ")
			}
			fmt.Fprintf(w, "%-36s %14.0f %14.0f %+8.1f%% %+8.1f%%%s\n",
				r.name, r.old.NsPerOp, r.new.NsPerOp, 100*r.timeDelta, 100*r.byteDelta, status)
		}
	}
	// -min-ratio assertions run against the new snapshot: they express
	// intra-run invariants (warm must beat cold) rather than old-vs-new
	// regressions.
	for _, spec := range ratios {
		if err := checkRatio(newS, spec); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failures++
		} else {
			fmt.Fprintf(w, "min-ratio OK: %s >= %.2fx %s\n", spec.Slow, spec.Ratio, spec.Fast)
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed beyond thresholds (ns/op %+.1f%%, B/op %+.1f%%)\n",
			failures, 100*maxTime, 100*maxBytes)
		return 1, nil
	}
	fmt.Fprintf(w, "\nall compared benchmarks within thresholds\n")
	return 0, nil
}

// runCheck is the single-snapshot mode: only -min-ratio assertions, no
// old-vs-new diff. Used to enforce intra-run invariants on a snapshot
// that has no meaningful baseline (e.g. warm-vs-cold sub-benchmarks).
func runCheck(w io.Writer, path string, ratios []ratioSpec) (int, error) {
	s, err := loadSnapshot(path)
	if err != nil {
		return 1, err
	}
	failures := 0
	for _, spec := range ratios {
		if err := checkRatio(s, spec); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failures++
		} else {
			fmt.Fprintf(w, "min-ratio OK: %s >= %.2fx %s\n", spec.Slow, spec.Ratio, spec.Fast)
		}
	}
	if failures > 0 {
		return 1, nil
	}
	return 0, nil
}

func main() {
	snapshot := flag.Bool("snapshot", false, "parse `go test -bench` text (stdin or a file argument) into a JSON snapshot")
	out := flag.String("o", "-", "snapshot output path (- for stdout)")
	maxTime := flag.Float64("max-time-regress", 0.10, "maximum tolerated fractional ns/op increase (negative demands improvement)")
	maxBytes := flag.Float64("max-bytes-regress", 0.10, "maximum tolerated fractional B/op increase (negative demands improvement)")
	only := flag.String("only", "", "restrict the compare diff to benchmarks matching this regexp")
	var minRatios multiFlag
	flag.Var(&minRatios, "min-ratio", "assert ns/op(slow) >= R*ns/op(fast) in the new snapshot, as 'slow,fast,R' (repeatable)")
	flag.Parse()

	if *snapshot {
		in := io.Reader(os.Stdin)
		if flag.NArg() == 1 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchdiff:", err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		} else if flag.NArg() > 1 {
			fmt.Fprintln(os.Stderr, "benchdiff: -snapshot takes at most one input file")
			os.Exit(2)
		}
		if err := runSnapshot(*out, in); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}

	var ratios []ratioSpec
	for _, raw := range minRatios {
		spec, err := parseRatio(raw)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		ratios = append(ratios, spec)
	}
	var onlyRe *regexp.Regexp
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: -only:", err)
			os.Exit(2)
		}
		onlyRe = re
	}

	if flag.NArg() == 1 && len(ratios) > 0 {
		code, err := runCheck(os.Stdout, flag.Arg(0), ratios)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
		}
		os.Exit(code)
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -snapshot [-o out.json] [bench.txt]")
		fmt.Fprintln(os.Stderr, "       benchdiff [-max-time-regress F] [-max-bytes-regress F] [-only RE] [-min-ratio slow,fast,R] old.json new.json")
		fmt.Fprintln(os.Stderr, "       benchdiff -min-ratio slow,fast,R snap.json")
		os.Exit(2)
	}
	code, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *maxTime, *maxBytes, onlyRe, ratios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(code)
}

// multiFlag collects repeated string flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
