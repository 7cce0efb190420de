# Standard developer entry points. `make verify` is the gate a change
# must pass before review: build, vet, the full test suite, the race
# detector over the whole module (short mode keeps the race pass fast),
# a fuzz smoke pass over the untrusted-input parsers, a benchmark-harness
# smoke check (one short benchmark through cmd/benchdiff), a regression
# diff of the anchor benchmarks against the latest BENCH_<n>.json
# (bench-check), the XL-tier multilevel smoke (scale-smoke, see
# docs/SCALING.md), the job-durability chaos suite (chaos-smoke), the
# sharded-serving integration suite (cluster-smoke, docs/DISTRIBUTED.md),
# the docs checks (gofmt drift + relative-link rot in *.md), the
# fused-multiply-add scan of the numerical kernels' cross-builds
# (fma-check), the vet + unit tests of the nested perfbench module
# (perfbench-check), and the experiment record regenerated against its
# checked-in copy (experiments-check).

GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 1x
BENCH ?= .
# bench-check knobs: the anchor subset it runs and the regression
# thresholds it tolerates. 1x numbers are noisy, so the defaults are
# deliberately loose; tighten them for interleaved runs on a quiet
# machine.
BENCH_CHECK ?= ^(BenchmarkFig7|BenchmarkTable3|BenchmarkSweepDeep|BenchmarkPartitionCached|BenchmarkIncrementalDelta|BenchmarkIncrementalFullRecompute|BenchmarkSupergraphMine)$$
BENCH_MAX_TIME ?= 0.50
BENCH_MAX_BYTES ?= 0.25
# The sweep-aware spectral core's performance gates. BENCH_TABLE3_GATE is
# a *negative* time threshold against the pre-spectral-core anchor
# (BENCH_TABLE3_ANCHOR): the diff fails unless BenchmarkTable3 is at
# least 40% faster than it recorded. BENCH_SWEEP_RATIO is the intra-run
# warm-vs-cold invariant on BenchmarkSweepDeep: the cold per-k sweep
# must be at least this many times slower than the shared sweep cache,
# which widens with headroom (see docs/PERFORMANCE.md and
# docs/NUMERICS.md § Headroom).
BENCH_TABLE3_ANCHOR ?= BENCH_4.json
BENCH_TABLE3_GATE ?= -0.40
BENCH_SWEEP_RATIO ?= 1.5

.PHONY: build vet test race bench bench-smoke bench-check bench-scale scale-smoke fuzz-smoke loc sse-smoke chaos-smoke cluster-smoke docs-check numerics-check fma-check perfbench-check experiments-check verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# bench runs the paper-protocol benchmark suite with allocation stats and
# snapshots the results to the next free BENCH_<n>.json via cmd/benchdiff.
# Compare two snapshots with:
#   go run ./cmd/benchdiff BENCH_1.json BENCH_2.json
# See docs/PERFORMANCE.md for the workflow and thresholds.
bench:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	$(GO) test -bench $(BENCH) -benchtime $(BENCHTIME) -benchmem -run '^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchdiff -snapshot -o BENCH_$$n.json \
		&& echo "wrote BENCH_$$n.json"

# bench-smoke is the verify-gate check for the benchmark harness: one
# short benchmark runs with -benchmem, its text output round-trips
# through benchdiff's snapshot parser, and the snapshot self-compares
# cleanly. It proves the harness end to end without the cost of the
# full suite.
# bench-scale snapshots the scale-tier anchors (BenchmarkScale: S/M/L,
# time + peakMB, docs/SCALING.md) alongside the regular anchor subset to
# the next free BENCH_<n>.json, so the scaling table has a pinned
# history just like the paper-protocol benchmarks.
bench-scale:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -bench '$(BENCH_CHECK)' -benchtime $(BENCHTIME) -benchmem -run '^$$' . > "$$tmp/bench.txt" && \
	$(GO) test -bench '^BenchmarkScale$$' -benchtime $(BENCHTIME) -benchmem -run '^$$' . >> "$$tmp/bench.txt" && \
	$(GO) run ./cmd/benchdiff -snapshot -o BENCH_$$n.json "$$tmp/bench.txt" \
		&& echo "wrote BENCH_$$n.json"

# scale-smoke drives the XL tier (>= 1e6 directed segments) through the
# auto multilevel path once, end to end (TestScaleSmokeXL). ~15-60s.
scale-smoke:
	ROADPART_SCALE_SMOKE=1 $(GO) test -run '^TestScaleSmokeXL$$' -v -short -timeout 30m .

bench-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -bench '^BenchmarkEigenDense300$$' -benchtime 1x -benchmem -run '^$$' . > "$$tmp/bench.txt" && \
	$(GO) run ./cmd/benchdiff -snapshot -o "$$tmp/a.json" "$$tmp/bench.txt" && \
	$(GO) run ./cmd/benchdiff "$$tmp/a.json" "$$tmp/a.json" >/dev/null && \
	echo "bench-smoke: snapshot + self-compare OK"

# bench-check guards the anchor benchmarks against regressions: it runs
# the BENCH_CHECK subset 3 times (-count 3), snapshots the median of
# each, and diffs against the most recent checked-in BENCH_<n>.json via
# cmd/benchdiff. Benchmarks present in only one side (suite growth) are
# reported but never failed.
# Override the thresholds per invocation, e.g.
#   make bench-check BENCH_MAX_TIME=0.10 BENCHTIME=5x
# bench-check also runs the BenchmarkScale/tier=L anchor (the multilevel
# path at >= 1e5 dual nodes, docs/SCALING.md) as a second `go test`
# invocation appended to the same results file: `go test` splits the
# -bench pattern on "/", so folding a sub-benchmark anchor into
# BENCH_CHECK's alternation would wrongly filter SweepDeep's cold/warm
# sub-benchmarks.
bench-check:
	@latest=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$latest" ]; then echo "bench-check: no BENCH_<n>.json snapshot found"; exit 1; fi; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -bench '$(BENCH_CHECK)' -benchtime $(BENCHTIME) -count 3 -benchmem -run '^$$' . > "$$tmp/bench.txt" && \
	$(GO) test -bench '^BenchmarkScale$$/^tier=L$$' -benchtime $(BENCHTIME) -count 3 -benchmem -run '^$$' . >> "$$tmp/bench.txt" && \
	$(GO) run ./cmd/benchdiff -snapshot -o "$$tmp/new.json" "$$tmp/bench.txt" && \
	echo "bench-check: comparing against $$latest" && \
	$(GO) run ./cmd/benchdiff -max-time-regress $(BENCH_MAX_TIME) -max-bytes-regress $(BENCH_MAX_BYTES) \
		"$$latest" "$$tmp/new.json" && \
	echo "bench-check: Table 3 gate vs $(BENCH_TABLE3_ANCHOR) (>= 40% faster)" && \
	$(GO) run ./cmd/benchdiff -only '^BenchmarkTable3$$' \
		-max-time-regress $(BENCH_TABLE3_GATE) -max-bytes-regress 10 \
		"$(BENCH_TABLE3_ANCHOR)" "$$tmp/new.json" && \
	echo "bench-check: SweepDeep warm-vs-cold ratio (>= $(BENCH_SWEEP_RATIO)x)" && \
	$(GO) run ./cmd/benchdiff \
		-min-ratio 'BenchmarkSweepDeep/cold,BenchmarkSweepDeep/warm,$(BENCH_SWEEP_RATIO)' \
		"$$tmp/new.json"

# fuzz-smoke runs each roadnet fuzz target, and the service-boundary
# targets FuzzJobSubmit (POST /v1/jobs), FuzzDecodeRequest (all five
# request documents) and FuzzKeyedReplay (internal/server), for FUZZTIME
# (default 10s). FuzzReadJSON and FuzzDecodeRequest are differential:
# the strict roadnet.Cursor decoders must accept, reject and decode
# exactly as encoding/json with DisallowUnknownFields does, float bits
# included, apart from repeated member names and trailing data, which
# only they reject. FuzzKeyedReplay is differential in time: each input
# posted twice to /v1/partition and /v1/sweep on a cache-enabled
# service must get the same answer both times, so a raw-body alias hit
# replays only what the decoded request answered; a longer decoy posted
# before each copy makes it land in a recycled body buffer with a stale
# tail (spaces the first time, 'x' the second), so a read past the
# body's end would answer the two differently. Go allows one -fuzz
# target per invocation, so the targets run
# in sequence; seeds come from internal/roadnet/testdata plus the inline
# f.Add corpus. A crasher fails the run and is written to the package's
# testdata/fuzz/ for triage.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime $(FUZZTIME) ./internal/roadnet
	$(GO) test -run '^$$' -fuzz '^FuzzReadGeoJSON$$' -fuzztime $(FUZZTIME) ./internal/roadnet
	$(GO) test -run '^$$' -fuzz '^FuzzReadDensitiesCSV$$' -fuzztime $(FUZZTIME) ./internal/roadnet
	$(GO) test -run '^$$' -fuzz '^FuzzJobSubmit$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzKeyedReplay$$' -fuzztime $(FUZZTIME) ./internal/server

# loc prints the number of non-test and test Go lines outside perfbench/
# — the two figures each change reports (ROADMAP aim 2). Code moved into
# _test.go files is not a reduction, so both numbers go in the report.
loc:
	@printf 'non-test %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -print0 | xargs -0 cat | wc -l)"
	@printf 'test     %s\n' "$$(find . -name '*_test.go' ! -path './perfbench/*' -print0 | xargs -0 cat | wc -l)"

# sse-smoke exercises the streaming daemon end to end under the race
# detector: POST /v1/densities establishes a stream and steps it by a
# sparse delta, and GET /v1/watch delivers the repartition events over
# SSE (replay on connect plus a live event), then disconnects cleanly.
sse-smoke:
	$(GO) test -race -run '^(TestDensitiesStream|TestWatchStreamsEvents|TestWatchDisconnectReleasesSubscriber)$$' ./internal/server

# cluster-smoke runs the sharded multi-daemon integration suite under
# the race detector: 3 in-process daemons over real listeners, pinning
# key affinity, byte-identical cross-shard responses, remote-hit cache
# semantics, fingerprint-routed job polls, unbuffered SSE through the
# forwarding hop, owner-death failover/rejoin and the rendezvous remap
# bound (see internal/server/cluster_test.go and docs/DISTRIBUTED.md).
cluster-smoke:
	$(GO) test -race -short -run '^(TestCluster|TestLatEWMA)' ./internal/server

# chaos-smoke runs the job-durability fault-injection suite under the
# race detector: the journal is killed between every pair of records
# and the manager restarted, asserting no acknowledged job is lost and
# none runs to completion twice; plus the unjournaled-submission and
# journal-failure-liveness invariants (see internal/jobs/chaos_test.go
# and docs/ARCHITECTURE.md § Jobs dataflow).
chaos-smoke:
	$(GO) test -race -short -run '^TestChaos' ./internal/jobs

# numerics-check pins docs/NUMERICS.md's golden-hash table of record to
# the hashes actually asserted by the test suite: the table in the doc
# and the map in internal/core/ctx_test.go must agree bit for bit, so
# neither can drift without the other (and the doc's re-pinning policy)
# being updated in the same change. It also gates the bit-identity of
# the rewritten kernels with the loops they replaced (docs/NUMERICS.md
# § Determinism): the 1-D Lloyd kernel (TestOneDMatchesOracle), the
# bounded d-dimensional Lloyd pass (TestNDMatchesOracle), the α-Cut
# refiner and the connectivity repair (TestRefineMatchesOracle,
# TestRepairMatchesOracle), the two component walks and the partition
# adjacency (TestGroupComponentsMatchesClosureWalk,
# TestSubsetComponentsMatchesStampedSplit,
# TestQuotientAdjacencyMatchesOracle), the bounded component walk
# (TestGroupComponentsBoundedWalk), the fused reorthogonalization sweep
# (TestOrthogonalizeMatchesUnfused, TestAxpyDotMatchesAxpyThenDot), its
# chunk-ordered fold at workers 1, 2 and 3 (TestSweepMatchesChunkOracle,
# TestOrthogonalizeWorkerIndependent, TestLanczosWorkerIndependent), the
# last-row Ritz check against the full re-solve and its path counters
# (TestRitzCheckMatchesFullSolve, TestRitzCheckFixtureStops,
# TestSymTridEigenRowSubsets, TestRitzChecksCounted), the
# eigensolver's dirty-workspace bit identity
# (TestLanczosWSDirtyWorkspaceBitIdentical), a widened spectral cache
# against a fresh solve (TestSpectralWideningMatchesFresh), and the
# generated networks' digests (TestGeneratorDigests).
numerics-check:
	$(GO) test -run '^TestNumericsGoldenTable$$' .
	$(GO) test -run '^(TestOneDMatchesOracle|TestNDMatchesOracle)$$' ./internal/kmeans
	$(GO) test -run '^(TestRefineMatchesOracle|TestRepairMatchesOracle|TestSpectralWideningMatchesFresh)$$' ./internal/cut
	$(GO) test -run '^TestGeneratorDigests$$' ./internal/gen
	$(GO) test -run '^(TestGroupComponentsMatchesClosureWalk|TestGroupComponentsBoundedWalk|TestSubsetComponentsMatchesStampedSplit)$$' ./internal/graph
	$(GO) test -run '^TestQuotientAdjacencyMatchesOracle$$' ./internal/metrics
	$(GO) test -run '^(TestOrthogonalizeMatchesUnfused|TestOrthogonalizeWorkerIndependent|TestLanczosWorkerIndependent|TestRitzCheckMatchesFullSolve|TestRitzCheckFixtureStops|TestSymTridEigenRowSubsets|TestRitzChecksCounted|TestLanczosWSDirtyWorkspaceBitIdentical)$$' ./internal/eigen
	$(GO) test -run '^(TestAxpyDotMatchesAxpyThenDot|TestSweepMatchesChunkOracle)$$' ./internal/linalg

# fma-check keeps fused multiply-adds out of the numerical kernels. The
# arm64, ppc64le and riscv64 compilers fuse x*y + z into one FMA
# instruction, which rounds once where two roundings were written, unless
# the product is converted with an explicit float64(...); one fused op in
# internal/linalg or internal/eigen would make the Lanczos bits depend on
# the platform (docs/NUMERICS.md § Determinism). The amd64 compiler (Go
# 1.24, at every GOAMD64 level) emits VFMADD231SD only for an explicit
# math.FMA, which neither package calls, so amd64 is not built here. The
# target cross-builds cmd/roadpart for arm64, ppc64le and riscv64,
# disassembles the two packages with go tool objdump, fails naming every
# function that holds an FMADD/FMSUB/FNMADD/FNMSUB-family instruction,
# and prints its wall time.
fma-check:
	@start=$$(date +%s%N); tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; status=0; \
	for arch in arm64 ppc64le riscv64; do \
		GOOS=linux GOARCH=$$arch $(GO) build -o "$$tmp/roadpart" ./cmd/roadpart || exit 1; \
		$(GO) tool objdump -s '^roadpart/internal/(linalg|eigen)\.' "$$tmp/roadpart" > "$$tmp/dis" || exit 1; \
		awk -v arch=$$arch '/^TEXT /{fn = $$2; fns++} $$4 ~ /^FN?M(ADD|SUB)/ {print "fma-check: " arch ": " fn " " $$1 " " $$4; n++} \
			END {if (!fns) print "fma-check: " arch ": no linalg or eigen functions disassembled"; exit n > 0 || !fns}' "$$tmp/dis" || status=1; \
	done; \
	echo "fma-check: arm64 ppc64le riscv64 checked in $$(( ($$(date +%s%N) - start) / 1000000 )) ms"; \
	exit $$status

# docs-check fails on gofmt drift, vet findings, broken relative links
# in the repository's Markdown, or a package path in a quoted `go run`/
# `go test` command that does not exist (see docs_link_test.go).
docs-check:
	@drift="$$(gofmt -l .)"; if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -run '^(TestDocsLinks|TestDocsGoPackagesExist)$$' .

# perfbench-check vets and unit-tests perfbench/, the end-to-end daemon
# benchmark (BENCHMARK.json). It is a nested module, so `go test ./...`
# never builds it; this target is what fails when an internal API change
# breaks the benchmark harness.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# experiments-check ties the experiment record to the code: it reruns
# `go run ./cmd/experiments -exp all -scale small` and diffs its output
# against docs/results-small-scale.txt (about a minute, most of it the
# dense eigensolver ablation), failing on any difference and printing its
# wall time. Only timing fields differ between two runs of the same code,
# so EXPERIMENTS_MASK replaces exactly these with "~" on both sides, and
# squeezes the padding around them, in the TABLE3, ABLATIONS and SCALING
# sections only:
#   - every Go duration token ("0s", "17ms", "3.384s", "1m2.5s"): the
#     Table 3 module times, the ablations' Elapsed column and the
#     eigensolver ablation's lanczos= time, and the scaling study's
#     module times;
#   - the eigensolver ablation's speedup=<ratio>x, a ratio of two times;
#   - the scaling study's fitted growth exponent of total time.
# Every other field (Tables 1 and 2, Figs. 4-7, ANS, GDBI and the notes
# columns) must match byte for byte. Re-record with
#   go run ./cmd/experiments -exp all -scale small > docs/results-small-scale.txt
# under the docs/NUMERICS.md re-pinning policy, which also asks for the
# full-scale record in the same commit.
EXPERIMENTS_MASK = awk '/^=== /{sec = $$2} \
	sec == "TABLE3" || sec == "ABLATIONS" || sec == "SCALING" { \
		gsub(/([0-9]+h)?([0-9]+m)?[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)/, "~"); \
		gsub(/speedup=[0-9.]+x/, "speedup=~"); \
		sub(/exponent of total time: -?[0-9.]+/, "exponent of total time: ~"); \
		gsub(/ +/, " ") } \
	{print}'

experiments-check:
	@start=$$(date +%s%N); tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -scale small > "$$tmp/new.txt" || exit 1; \
	$(EXPERIMENTS_MASK) docs/results-small-scale.txt > "$$tmp/record.masked" && \
	$(EXPERIMENTS_MASK) "$$tmp/new.txt" > "$$tmp/new.masked" || exit 1; \
	status=0; diff -u "$$tmp/record.masked" "$$tmp/new.masked" || { \
		echo "experiments-check: output differs from docs/results-small-scale.txt (timing fields masked)"; status=1; }; \
	echo "experiments-check: checked in $$(( ($$(date +%s%N) - start) / 1000000 )) ms"; \
	exit $$status

verify: build vet test race fuzz-smoke bench-smoke bench-check scale-smoke sse-smoke chaos-smoke cluster-smoke docs-check numerics-check fma-check perfbench-check experiments-check
