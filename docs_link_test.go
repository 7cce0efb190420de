package roadpart

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links/images: [text](target). Reference
// definitions and autolinks are rare in this repo and external anyway.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// TestDocsLinks walks every Markdown file in the repository (root and
// docs/) and fails on relative links whose target file does not exist.
// It is the link-rot gate behind `make docs-check`; external URLs are
// not fetched.
func TestDocsLinks(t *testing.T) {
	files := markdownFiles(t)
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not fetched
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // in-page anchor
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", file, m[1], resolved)
			}
			checked++
		}
	}
	t.Logf("checked %d relative links across %d markdown files", checked, len(files))
}

// markdownFiles returns every tracked Markdown file in the repository
// root and docs/ tree, failing the test if none are found.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md", "docs/**/*.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found — test running from the wrong directory?")
	}
	return files
}

// makeMention matches `make <target>` inside a Markdown code span or
// fenced block. Restricting to word characters and dashes keeps prose
// like "make sure" out: those never appear as `make xyz` in backticks
// or as a command line.
var makeMention = regexp.MustCompile("(?m)(?:`|^[ \t]*\\$? ?)make ([a-z][a-z0-9-]*)")

// makefileTarget matches a rule definition line in the Makefile.
var makefileTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)

// TestDocsMakeTargetsExist cross-checks every `make <target>` mention in
// the repository's Markdown against the Makefile's actual rules, so docs
// cannot advertise a target that was renamed or removed.
func TestDocsMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	if len(targets) == 0 {
		t.Fatal("no targets parsed from Makefile")
	}

	mentions := 0
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeMention.FindAllStringSubmatch(string(data), -1) {
			mentions++
			if !targets[m[1]] {
				t.Errorf("%s mentions `make %s` but the Makefile has no %q target", file, m[1], m[1])
			}
		}
	}
	if mentions == 0 {
		t.Fatal("no `make <target>` mentions found in any markdown file — regex drift?")
	}
	t.Logf("checked %d make-target mentions against %d Makefile targets", mentions, len(targets))
}

// goCommand matches a `go run|test|build|vet|install` command line in
// Markdown, prose or code, capturing its arguments up to the end of the
// code span, table cell or line.
var goCommand = regexp.MustCompile("go (?:run|test|build|vet|install)((?:[ \t]+[^ \t\n`|]+)*)")

// TestDocsGoPackagesExist checks that every package path a Markdown file
// hands to the go command (`go run ./cmd/gennet`, `go test ./internal/x`)
// names a directory with Go files, so a deleted or renamed package cannot
// linger in plain-text commands, which TestDocsLinks does not see.
// Patterns (`./...`, `./internal/...`) need only their directory.
func TestDocsGoPackagesExist(t *testing.T) {
	checked := 0
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goCommand.FindAllStringSubmatch(string(data), -1) {
			for _, arg := range strings.Fields(m[1]) {
				if !strings.HasPrefix(arg, "./") || strings.Contains(arg, "$") {
					continue
				}
				dir := arg
				for _, suffix := range []string{"...", "…"} {
					dir = strings.TrimSuffix(dir, suffix)
				}
				pattern := dir != arg
				dir = filepath.FromSlash(strings.TrimSuffix(dir, "/"))
				if dir == "" {
					dir = "."
				}
				checked++
				if pattern {
					if st, err := os.Stat(dir); err != nil || !st.IsDir() {
						t.Errorf("%s: `go ...%s` names pattern %q but %s is not a directory", file, m[1], arg, dir)
					}
					continue
				}
				if goFiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(goFiles) == 0 {
					t.Errorf("%s: `go ...%s` names package %q but %s holds no Go files", file, m[1], arg, dir)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no go-command package paths found in any markdown file — regex drift?")
	}
	t.Logf("checked %d go-command package paths", checked)
}

// goldenDocRow matches a row of the golden-hash table of record in
// docs/NUMERICS.md: `| D1/AG | `0x…` |`.
var goldenDocRow = regexp.MustCompile("(?m)^\\|\\s*([DM]\\d+/[A-Z]+)\\s*\\|\\s*`(0x[0-9a-f]{1,16})`\\s*\\|")

// goldenSourceEntry matches an entry of the preContextGolden map in
// internal/core/ctx_test.go: `"D1/AG":  0xbfd57440d12e6bb4,`.
var goldenSourceEntry = regexp.MustCompile(`"([DM]\d+/[A-Z]+)":\s*(0x[0-9a-f]{1,16}),`)

// TestNumericsGoldenTable pins docs/NUMERICS.md's golden-hash table of
// record to the hashes the test suite actually asserts: every entry of
// the preContextGolden map in internal/core/ctx_test.go must appear in
// the doc's table with the identical hash, and vice versa. The goldens
// and their documented invariance argument can therefore only move
// together — `make numerics-check` runs exactly this test.
func TestNumericsGoldenTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "NUMERICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	for _, m := range goldenDocRow.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("docs/NUMERICS.md has no parsable golden-hash table rows — regex drift?")
	}

	src, err := os.ReadFile(filepath.Join("internal", "core", "ctx_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	asserted := map[string]string{}
	for _, m := range goldenSourceEntry.FindAllStringSubmatch(string(src), -1) {
		asserted[m[1]] = m[2]
	}
	if len(asserted) == 0 {
		t.Fatal("internal/core/ctx_test.go has no parsable preContextGolden entries — regex drift?")
	}

	for key, hash := range asserted {
		switch got := documented[key]; got {
		case "":
			t.Errorf("sweep %s is pinned in ctx_test.go (%s) but missing from the NUMERICS.md table", key, hash)
		case hash:
		default:
			t.Errorf("sweep %s: NUMERICS.md documents %s but ctx_test.go asserts %s", key, got, hash)
		}
	}
	for key := range documented {
		if _, ok := asserted[key]; !ok {
			t.Errorf("sweep %s appears in the NUMERICS.md table but is not asserted in ctx_test.go", key)
		}
	}
	t.Logf("cross-checked %d golden hashes between docs/NUMERICS.md and ctx_test.go", len(asserted))
}

// numericsSymbol matches a backtick-quoted qualified Go identifier in
// docs/NUMERICS.md, e.g. `eigen.RankOneOp` or `core.Config.ColdWiden`.
// Only packages the doc actually covers are resolved.
var numericsSymbol = regexp.MustCompile("`(eigen|cut|core|kmeans|linalg|temporal)\\.([A-Z]\\w*)((?:\\.\\w+)*)`")

// checkDocSymbols verifies every qualified symbol the given regexp
// extracts from the doc against the source tree: the leading identifier
// must be declared in the named internal package (type, func, var,
// const or method), and any trailing selector components must at least
// occur as identifiers there. Documentation checked this way cannot
// drift to symbols that were renamed away.
func checkDocSymbols(t *testing.T, docPath string, symbol *regexp.Regexp) {
	t.Helper()
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	mentions := symbol.FindAllStringSubmatch(string(doc), -1)
	if len(mentions) == 0 {
		t.Fatalf("%s names no qualified symbols — regex drift?", docPath)
	}

	pkgSource := map[string]string{}
	source := func(pkg string) string {
		if src, ok := pkgSource[pkg]; ok {
			return src
		}
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go sources for internal/%s (%v)", pkg, err)
		}
		var sb strings.Builder
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(data)
			sb.WriteByte('\n')
		}
		pkgSource[pkg] = sb.String()
		return pkgSource[pkg]
	}

	checked := map[string]bool{}
	for _, m := range mentions {
		pkg, sym, rest := m[1], m[2], m[3]
		full := m[0]
		if checked[full] {
			continue
		}
		checked[full] = true
		src := source(pkg)
		decl := regexp.MustCompile(`(?m)^(?:func (?:\([^)]+\) )?|type |var |const )` + sym + `\b|^\t` + sym + ` `)
		if !decl.MatchString(src) {
			t.Errorf("%s mentions %s but internal/%s declares no %q", docPath, full, pkg, sym)
			continue
		}
		for _, part := range strings.Split(strings.TrimPrefix(rest, "."), ".") {
			if part == "" {
				continue
			}
			if !regexp.MustCompile(`\b` + part + `\b`).MatchString(src) {
				t.Errorf("%s mentions %s but %q does not occur in internal/%s", docPath, full, part, pkg)
			}
		}
	}
	t.Logf("resolved %d distinct qualified symbols from %s", len(checked), docPath)
}

// TestNumericsSymbolReferences applies checkDocSymbols to
// docs/NUMERICS.md.
func TestNumericsSymbolReferences(t *testing.T) {
	checkDocSymbols(t, filepath.Join("docs", "NUMERICS.md"), numericsSymbol)
}

// scalingSymbol matches a backtick-quoted qualified Go identifier in
// docs/SCALING.md, e.g. `coarsen.Build` or `core.Config.Multilevel`.
// Only packages the doc actually covers are resolved.
var scalingSymbol = regexp.MustCompile("`(coarsen|cut|core|gen|graph|traffic|metrics)\\.([A-Z]\\w*)((?:\\.\\w+)*)`")

// TestScalingSymbolReferences applies checkDocSymbols to
// docs/SCALING.md.
func TestScalingSymbolReferences(t *testing.T) {
	checkDocSymbols(t, filepath.Join("docs", "SCALING.md"), scalingSymbol)
}

// distributedSymbol matches a backtick-quoted qualified Go identifier
// in docs/DISTRIBUTED.md, e.g. `peers.Ring.Owner` or
// `jobs.FingerprintFromID`. Only packages the doc actually covers are
// resolved.
var distributedSymbol = regexp.MustCompile("`(peers|server|jobs|resultcache|obs)\\.([A-Z]\\w*)((?:\\.\\w+)*)`")

// TestDistributedSymbolReferences applies checkDocSymbols to
// docs/DISTRIBUTED.md, so the distributed-serving documentation cannot
// drift away from the ring, transport and forwarding symbols it names.
func TestDistributedSymbolReferences(t *testing.T) {
	checkDocSymbols(t, filepath.Join("docs", "DISTRIBUTED.md"), distributedSymbol)
}

// benchMention matches a Go benchmark identifier in prose or code,
// including sub-benchmark paths like `BenchmarkScale/tier=L`.
var benchMention = regexp.MustCompile(`\bBenchmark[A-Z]\w*(?:/[\w=.-]+)*`)

// benchDecl matches a benchmark function declaration in a _test.go file.
var benchDecl = regexp.MustCompile(`(?m)^func (Benchmark[A-Z]\w*)\(`)

// testSources concatenates every _test.go file in the repository
// (memoized per test run via the returned values being reused by the
// callers below) and collects the declared benchmark names.
func testSources(t *testing.T) (declared map[string]bool, allSource string) {
	t.Helper()
	declared = map[string]bool{}
	var sb strings.Builder
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sb.Write(data)
		sb.WriteByte('\n')
		for _, m := range benchDecl.FindAllStringSubmatch(string(data), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared, sb.String()
}

// checkDocBenchmarks verifies every benchmark named in the given doc
// against the test sources: the base name must be declared as a
// benchmark function, and each sub-benchmark path segment (the `tier=L`
// of `BenchmarkScale/tier=L`) must occur as a quoted string literal in
// some _test.go file — the b.Run name that produces it.
func checkDocBenchmarks(t *testing.T, docPath string) {
	t.Helper()
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	mentioned := map[string]bool{}
	for _, m := range benchMention.FindAllString(string(doc), -1) {
		mentioned[m] = true
	}
	if len(mentioned) == 0 {
		t.Fatalf("%s names no benchmarks — regex drift?", docPath)
	}

	declared, src := testSources(t)
	for name := range mentioned {
		segments := strings.Split(name, "/")
		if !declared[segments[0]] {
			t.Errorf("%s names %s but no _test.go file declares %s", docPath, name, segments[0])
			continue
		}
		for _, seg := range segments[1:] {
			if !strings.Contains(src, `"`+seg+`"`) {
				t.Errorf("%s names %s but no _test.go file contains the sub-benchmark literal %q", docPath, name, seg)
			}
		}
	}
	t.Logf("checked %d benchmark names from %s against %d declared benchmarks", len(mentioned), docPath, len(declared))
}

// TestPerformanceDocBenchmarksExist verifies that every benchmark named
// in docs/PERFORMANCE.md is declared in some _test.go file, so the
// performance documentation cannot reference benchmarks that no longer
// run under `make bench`.
func TestPerformanceDocBenchmarksExist(t *testing.T) {
	checkDocBenchmarks(t, filepath.Join("docs", "PERFORMANCE.md"))
}

// TestScalingDocBenchmarksExist applies the same gate to
// docs/SCALING.md, whose scale-tier table cites the BenchmarkScale
// sub-benchmarks by their full `tier=…` paths, and additionally checks
// the Test functions it cites (TestScaleSmokeXL and friends) exist.
func TestScalingDocBenchmarksExist(t *testing.T) {
	checkDocBenchmarks(t, filepath.Join("docs", "SCALING.md"))

	doc, err := os.ReadFile(filepath.Join("docs", "SCALING.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, src := testSources(t)
	tests := 0
	for _, m := range regexp.MustCompile(`\bTest[A-Z]\w*`).FindAllString(string(doc), -1) {
		tests++
		if !regexp.MustCompile(`(?m)^func ` + m + `\(`).MatchString(src) {
			t.Errorf("docs/SCALING.md names %s but no _test.go file declares it", m)
		}
	}
	if tests == 0 {
		t.Fatal("docs/SCALING.md names no Test functions — regex drift?")
	}
}
