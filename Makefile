# Build/verify entry points. `make check` is the gate for server-layer
# changes: vet everything (copylocks included), run staticcheck, run the full
# test suite (the bench/ module's included), then re-run everything under
# the race detector.

GO ?= go

.PHONY: all build test vet staticcheck vulncheck race check golden-drift bench-check bench-e2e bench-substrate bench-server fuzz smoke loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Non-blank, non-comment, non-test Go lines of the packages the simplicity
# PRs track: the planner and the two executors, the storage layer (heap
# file, buffer pool, WAL: every row fetch and slot write both index scans
# and every writer issue), the B-tree (its bounded range iterator is what
# both index scans read), the engine profiles, the statement pipeline with
# its two consumers, the wire protocol and its client library, the
# experiment harness, the TPC-H package, the simulator substrate (cache
# hierarchy and CPU model) and the public facade at the root.
loc:
	@scripts/loc.sh internal/db/plan internal/db/vec internal/db/exec
	@scripts/loc.sh internal/db/storage
	@scripts/loc.sh internal/db/btree
	@scripts/loc.sh internal/db/engine
	@scripts/loc.sh internal/server internal/server/wire internal/server/client cmd/dbshell internal/db/stmt
	@scripts/loc.sh internal/harness
	@scripts/loc.sh internal/tpch
	@scripts/loc.sh internal/memsim internal/cpusim
	@scripts/loc.sh .

# Static analysis beyond vet. Skipped with a notice when the binary is not
# installed (CI installs it; local runs stay dependency-free).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Known-vulnerability scan. Skipped with a notice when the binary is not
# installed, same policy as staticcheck (the module has zero dependencies,
# so this effectively audits the Go standard library version).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The race-detector pass covers the whole module; no package is carved
# out. -short skips only the single-goroutine simulation sweeps (harness
# figures/tables, tpch goldens), which have nothing for the race detector
# to observe but would dominate the instrumented wall clock. The server
# package's instrumented concurrency matrix alone runs ~11 minutes on a
# single-core host, so the per-package timeout is raised past Go's 10m
# default rather than letting slow machines fail spuriously.
race:
	$(GO) test -race -short -timeout 30m ./...

# Golden-drift gate: regenerate every EXPLAIN golden — the 22 TPC-H texts on
# the SQLite profile (testdata/explain) and on the PostgreSQL profile the
# benchmark's server runs (testdata/explain/postgresql), the writes
# (testdata/explain/dml) and the seven basic operations' row plans on all
# three profiles (testdata/explain/basic) — into a scratch
# directory and diff it, recursively, against the committed set.
# TestExplainGolden already fails on drift in `make test`; this target
# additionally catches a stale, hand-edited, missing or stray committed
# golden (the regenerated set is the single source of truth) and prints the
# full diff in one place.
golden-drift:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	EXPLAIN_GOLDEN_DIR="$$tmp" $(GO) test ./internal/tpch -run TestExplainGolden -update >/dev/null && \
	if diff -ru internal/tpch/testdata/explain "$$tmp"; then \
		echo "golden-drift: EXPLAIN goldens match regenerated plans"; \
	else \
		echo "golden-drift: committed goldens differ from regenerated plans (see diff above)"; exit 1; \
	fi

# bench/ is a module of its own (bench/go.mod replaces energydb with ../),
# so the root `go vet ./...` and `go test ./...` do not see it; this target
# is what keeps the benchmark compiling and its own tests green. It also runs
# the row-versus-vector index join pair, the fused expression loop and Q1's
# code-indexed aggregation of internal/db/vec once.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run xxx -bench 'BenchmarkIndexJoin|BenchmarkFusedProgram|BenchmarkQ1Aggregate' -benchtime 1x ./internal/db/vec/

check: vet staticcheck test bench-check golden-drift race

# The repository's benchmark (BENCHMARK.json, bench/README.md): the untraced
# end-to-end pass of one workload and seed, at the benchmark's own default
# length. WORKLOAD is one of analytic-resident, analytic-spill, point-lookup,
# txn-mixed; empty runs all four one after the other.
WORKLOAD ?=
SEED ?= 1

bench-e2e:
	bash bench/run.sh $(if $(WORKLOAD),--workload $(WORKLOAD)) --seed $(SEED)

# End-to-end observability smoke: boots energyd with -metrics-addr, runs
# statements over the wire (incl. \stats), scrapes /metrics and greps the
# core metric families with live values.
smoke:
	./scripts/smoke.sh

# BENCHTIME is overridable so CI can keep the bench smokes short.
BENCHTIME ?= 1s

# The simulated substrate's host cost (root bench_test.go): the hierarchy
# walk on an L1D hit, a never-hitting stream, a cache-resident scan and random
# DRAM loads, the calibration every boot pays (BenchmarkCalibration/boot;
# internal/mubench's BenchmarkCalibration/spec=<name> splits each MBS
# benchmark into walker build, warmup and measured passes),
# the index build
# every load pays, the ANALYZE pass a planner pays when a table's
# statistics have gone stale (internal/db/engine; these with B/op and
# allocs/op, so the snapshot's, the index build's, boot's and ANALYZE's heap
# use are on record), the planning of the 22
# TPC-H texts (internal/db/plan: every node priced through the executors'
# charge functions), a B-tree descent per key, grouped (SeekBatch) and one
# key at a time (Lookup, which every keyed SELECT of point-lookup's warm-up
# runs), as ns/key and allocs/op (internal/db/btree), the lines and DRAM
# fills of one scan of Q1's columns of a
# lineitem-shaped heap laid out row-major and in column runs, and the loads,
# lines and DRAM fills per row of a batch fetch of Q6's columns of it in
# key order
# (internal/db/storage; simulated cost, once is exact). These are
# the numbers a memsim, btree, statistics, planner or heap-layout change reports before
# and after; CI runs them
# once each to keep them compiling and finishing.
bench-substrate:
	$(GO) test -run xxx -bench 'BenchmarkHierarchy|BenchmarkCalibration|BenchmarkCreateIndex' -benchmem -benchtime $(BENCHTIME) . ./internal/mubench/
	$(GO) test -run xxx -bench BenchmarkAnalyze -benchmem -benchtime $(BENCHTIME) ./internal/db/engine/
	$(GO) test -run xxx -bench BenchmarkPrepare -benchtime $(BENCHTIME) ./internal/db/plan/
	$(GO) test -run xxx -bench 'BenchmarkLookup|BenchmarkSeekBatch' -benchmem -benchtime $(BENCHTIME) ./internal/db/btree/
	$(GO) test -run xxx -bench 'BenchmarkHeapScanLayout|BenchmarkHeapFetchLayout' -benchtime 1x ./internal/db/storage/

# The wire and hand-off layer's host cost (internal/server): one client on a
# loopback energyd sending keyed SELECTs on orders, reported as ns/stmt and
# allocs/op (both ends share the process). The simulator does almost nothing
# for these statements, so this is the number a socket, frame, scheduling or
# reply-write change reports before and after. BenchmarkFrames
# (internal/server/wire) is the codec's share of it: one point-lookup
# exchange — Query, a one-row ResultSet, EnergyReport — encoded and decoded,
# with B/op and allocs/op. CI runs both once to keep them compiling and
# finishing.
bench-server:
	$(GO) test -run xxx -bench BenchmarkRoundTrip -benchtime $(BENCHTIME) ./internal/server/
	$(GO) test -run xxx -bench BenchmarkFrames -benchmem -benchtime $(BENCHTIME) ./internal/server/wire/

# Short fuzz pass over every fuzz target: the SQL parser (raw client text),
# the planner pipeline (parse → optimize → build → execute), the row-versus-
# vector differential executor, both wire-protocol surfaces, the cache
# hierarchy against its reference model, the state equivalence that
# calibration's credited passes rest on, calibration's closed-form pass
# against the walk it stands for, the B+tree's insert/delete/seek
# against a sorted-slice model, and a row-major and a column heap under the
# same writes, the visibility map's invariant checked after each. FUZZTIME is overridable for CI smoke runs.
# Each line caps the minimisation of a new input at 2 s, so a run spends its
# FUZZTIME fuzzing: uncapped, FuzzBtreeDelete stopped executing once its
# second new input turned up.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/db/sql/
	$(GO) test -run xxx -fuzz FuzzPlan -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/db/plan/
	$(GO) test -run xxx -fuzz FuzzVecExec -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/db/vec/
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/server/wire/
	$(GO) test -run xxx -fuzz FuzzQueryRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/server/wire/
	$(GO) test -run xxx -fuzz '^FuzzHierarchy$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/memsim/
	$(GO) test -run xxx -fuzz '^FuzzHierarchyState$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/memsim/
	$(GO) test -run xxx -fuzz '^FuzzThrashPass$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/memsim/
	$(GO) test -run xxx -fuzz FuzzBtreeDelete -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/db/btree/
	$(GO) test -run xxx -fuzz FuzzHeapLayouts -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/db/storage/
