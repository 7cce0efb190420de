package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: roadpart
cpu: Some CPU @ 2.40GHz
BenchmarkFig7-4          	       1	118969338 ns/op	 9743360 B/op	   22969 allocs/op
BenchmarkTable3-4        	       1	578646637 ns/op	31152904 B/op	   73645 allocs/op
BenchmarkNorm2-4         	20000000	         3.25 ns/op
PASS
ok  	roadpart	12.3s
`

func TestParseText(t *testing.T) {
	snap, err := parseText(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" {
		t.Fatalf("platform not parsed: %+v", snap)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(snap.Benchmarks))
	}
	fig7 := snap.Benchmarks[0]
	if fig7.Name != "BenchmarkFig7" || fig7.Procs != 4 {
		t.Fatalf("name/procs not split: %+v", fig7)
	}
	if fig7.NsPerOp != 118969338 || fig7.BytesPerOp != 9743360 || fig7.AllocsPerOp != 22969 {
		t.Fatalf("metrics wrong: %+v", fig7)
	}
	if norm := snap.Benchmarks[2]; norm.NsPerOp != 3.25 || norm.BytesPerOp != 0 {
		t.Fatalf("ns-only line wrong: %+v", norm)
	}
}

// TestParseTextFoldsRepeatedRuns pins the folding of `go test -count N`
// output: one entry per benchmark and package, in first-appearance
// order, holding the median of every measurement (the mean of the middle
// two for an even count).
func TestParseTextFoldsRepeatedRuns(t *testing.T) {
	// go test separates the measurements of a result line by tabs.
	const text = "pkg: roadpart\n" +
		"BenchmarkFig7-2\t1\t300 ns/op\t30 B/op\t3 allocs/op\t9 peakMB\n" +
		"BenchmarkTable3-2\t2\t1000 ns/op\t100 B/op\t10 allocs/op\n" +
		"BenchmarkFig7-2\t3\t100 ns/op\t50 B/op\t1 allocs/op\t7 peakMB\n" +
		"BenchmarkTable3-2\t4\t2000 ns/op\t300 B/op\t20 allocs/op\n" +
		"BenchmarkFig7-2\t5\t200 ns/op\t10 B/op\t2 allocs/op\t8 peakMB\n" +
		"pkg: roadpart/internal/supergraph\n" +
		"BenchmarkFig7-2\t7\t50 ns/op\n"
	snap, err := parseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkFig7", Pkg: "roadpart", Procs: 2, Iterations: 3, NsPerOp: 200, BytesPerOp: 30, AllocsPerOp: 2, Metrics: map[string]float64{"peakMB": 8}},
		{Name: "BenchmarkTable3", Pkg: "roadpart", Procs: 2, Iterations: 3, NsPerOp: 1500, BytesPerOp: 200, AllocsPerOp: 15},
		{Name: "BenchmarkFig7", Pkg: "roadpart/internal/supergraph", Procs: 2, Iterations: 7, NsPerOp: 50},
	}
	if !reflect.DeepEqual(snap.Benchmarks, want) {
		t.Fatalf("folded benchmarks:\n got %+v\nwant %+v", snap.Benchmarks, want)
	}
}

func TestParseTextRejectsEmpty(t *testing.T) {
	if _, err := parseText(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("expected error for input without benchmarks")
	}
}

func mkSnap(name string, ns, bytes float64) *Snapshot {
	return &Snapshot{Schema: schemaV1, Benchmarks: []Benchmark{
		{Name: name, Iterations: 1, NsPerOp: ns, BytesPerOp: bytes},
	}}
}

func TestCompareWithinThreshold(t *testing.T) {
	rows, failures := compare(mkSnap("BenchmarkX", 100, 1000), mkSnap("BenchmarkX", 105, 900), 0.10, 0.10, nil)
	if failures != 0 {
		t.Fatalf("unexpected failures: %+v", rows)
	}
	if rows[0].timeDelta != 0.05 {
		t.Fatalf("timeDelta = %v", rows[0].timeDelta)
	}
}

func TestCompareFailsOverThreshold(t *testing.T) {
	_, failures := compare(mkSnap("BenchmarkX", 100, 1000), mkSnap("BenchmarkX", 150, 1000), 0.10, 0.10, nil)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
}

func TestCompareNegativeThresholdDemandsImprovement(t *testing.T) {
	// -0.30 on bytes: a 20% reduction is not enough.
	_, failures := compare(mkSnap("BenchmarkX", 100, 1000), mkSnap("BenchmarkX", 100, 800), 0.10, -0.30, nil)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (20%% < required 30%% cut)", failures)
	}
	_, failures = compare(mkSnap("BenchmarkX", 100, 1000), mkSnap("BenchmarkX", 100, 600), 0.10, -0.30, nil)
	if failures != 0 {
		t.Fatalf("failures = %d, want 0 (40%% cut clears -30%%)", failures)
	}
}

func TestCompareAddedRemovedNotFailures(t *testing.T) {
	old := mkSnap("BenchmarkGone", 100, 0)
	new := mkSnap("BenchmarkNew", 100, 0)
	rows, failures := compare(old, new, 0, 0, nil)
	if failures != 0 {
		t.Fatalf("added/removed counted as failures: %+v", rows)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestSnapshotCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := runSnapshot(path, strings.NewReader(sampleBench)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	code, err := runCompare(&sb, path, path, 0.0, 0.0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("self-compare exit %d:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkFig7") {
		t.Fatalf("table missing benchmark:\n%s", sb.String())
	}
}

func TestLoadSnapshotRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path); err == nil {
		t.Fatal("expected schema error")
	}
}

// multiSnap builds a snapshot holding several benchmarks at given ns/op.
func multiSnap(ns map[string]float64) *Snapshot {
	s := &Snapshot{Schema: schemaV1}
	names := make([]string, 0, len(ns))
	for n := range ns {
		names = append(names, n)
	}
	// Deterministic order keeps failure messages stable.
	for len(names) > 0 {
		min := 0
		for i := range names {
			if names[i] < names[min] {
				min = i
			}
		}
		n := names[min]
		names = append(names[:min], names[min+1:]...)
		s.Benchmarks = append(s.Benchmarks, Benchmark{Name: n, Iterations: 1, NsPerOp: ns[n]})
	}
	return s
}

func TestCompareOnlyRestrictsChecks(t *testing.T) {
	old := multiSnap(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100})
	new := multiSnap(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 500})
	// BenchmarkB regresses 5x, but -only excludes it from the diff.
	re := regexp.MustCompile(`^BenchmarkA$`)
	rows, failures := compare(old, new, 0.10, 0.10, re)
	if failures != 0 {
		t.Fatalf("failures = %d, want 0 with -only ^BenchmarkA$", failures)
	}
	if len(rows) != 1 || rows[0].name != "BenchmarkA" {
		t.Fatalf("rows = %+v, want only BenchmarkA", rows)
	}
	if _, failures = compare(old, new, 0.10, 0.10, nil); failures != 1 {
		t.Fatalf("without -only, failures = %d, want 1", failures)
	}
}

func TestParseRatio(t *testing.T) {
	spec, err := parseRatio("BenchmarkSweepDeep/cold,BenchmarkSweepDeep/warm,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Slow != "BenchmarkSweepDeep/cold" || spec.Fast != "BenchmarkSweepDeep/warm" || spec.Ratio != 1.5 {
		t.Fatalf("spec = %+v", spec)
	}
	for _, bad := range []string{"", "a,b", "a,b,c,d", "a,b,zero", "a,b,-1"} {
		if _, err := parseRatio(bad); err == nil {
			t.Fatalf("parseRatio(%q) accepted", bad)
		}
	}
}

func TestCheckRatio(t *testing.T) {
	s := multiSnap(map[string]float64{"Benchmark/cold": 300, "Benchmark/warm": 100})
	if err := checkRatio(s, ratioSpec{Slow: "Benchmark/cold", Fast: "Benchmark/warm", Ratio: 1.5}); err != nil {
		t.Fatalf("3x ratio failed a 1.5x requirement: %v", err)
	}
	if err := checkRatio(s, ratioSpec{Slow: "Benchmark/cold", Fast: "Benchmark/warm", Ratio: 5}); err == nil {
		t.Fatal("3x ratio passed a 5x requirement")
	}
	if err := checkRatio(s, ratioSpec{Slow: "Benchmark/missing", Fast: "Benchmark/warm", Ratio: 1}); err == nil {
		t.Fatal("missing slow benchmark passed")
	}
	if err := checkRatio(s, ratioSpec{Slow: "Benchmark/cold", Fast: "Benchmark/missing", Ratio: 1}); err == nil {
		t.Fatal("missing fast benchmark passed")
	}
}

func TestRunCheckSingleSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	data, err := json.MarshalIndent(multiSnap(map[string]float64{"B/cold": 200, "B/warm": 100}), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	code, err := runCheck(&sb, path, []ratioSpec{{Slow: "B/cold", Fast: "B/warm", Ratio: 1.5}})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v out=%s", code, err, sb.String())
	}
	sb.Reset()
	code, err = runCheck(&sb, path, []ratioSpec{{Slow: "B/cold", Fast: "B/warm", Ratio: 3}})
	if err != nil || code != 1 {
		t.Fatalf("under-ratio: code=%d err=%v out=%s", code, err, sb.String())
	}
}

func TestCompareMinRatioAgainstNewSnapshot(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	write := func(p string, s *Snapshot) {
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldP, multiSnap(map[string]float64{"B/cold": 400, "B/warm": 100}))
	write(newP, multiSnap(map[string]float64{"B/cold": 120, "B/warm": 100}))
	var sb strings.Builder
	// Thresholds pass (both improved or equal), but the new snapshot's
	// ratio collapsed below 1.5x — the compare must fail on it.
	code, err := runCompare(&sb, oldP, newP, 0.10, 0.10,
		nil, []ratioSpec{{Slow: "B/cold", Fast: "B/warm", Ratio: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("ratio collapse not failed: %s", sb.String())
	}
	if !strings.Contains(sb.String(), "min-ratio") {
		t.Fatalf("failure not attributed to min-ratio:\n%s", sb.String())
	}
}
