GO ?= go

# Coverage floor (%) enforced by `make cover` over the unified-API packages
# (the graph subsystem included) plus the shared shuffle core and the
# cost-based planner. The planner additionally carries its own, higher floor: its
# decisions are the configurations ext10 and make calibrate measure, so the
# package stays near-fully exercised.
COVER_FLOOR ?= 60
PLANNER_COVER_FLOOR ?= 80
COVER_PKGS = ./internal/dataflow/... ./internal/shuffle/... ./internal/streaming/... ./internal/planner/...

.PHONY: build test lint cover bench-smoke bench-tiny fuzz-smoke profile calibrate ext10-gates bench-pair

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# gofmt + go vet always; staticcheck when the binary is available (CI
# installs it — locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
# ./examples/... is vetted explicitly so example rot is caught even if the
# package patterns above it ever drift behind build tags.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet ./examples/...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Coverage gate for the dataflow layer (incl. the graph subsystem), the
# shuffle core, streaming and the planner.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f) ? 1 : 0 }' || \
		{ echo "coverage below floor"; exit 1; }
	@pl="$$($(GO) test -cover ./internal/planner | awk '{ for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { sub(/%/, "", $$i); print $$i } }')"; \
	echo "internal/planner coverage: $$pl% (floor $(PLANNER_COVER_FLOOR)%)"; \
	awk -v t="$$pl" -v f="$(PLANNER_COVER_FLOOR)" 'BEGIN { exit (t + 0 < f) ? 1 : 0 }' || \
		{ echo "planner coverage below floor"; exit 1; }

# Fast benchmark subset (1 iteration, no unit tests) plus five benchrunner
# experiments — tab1 (operator plans), ext4 (a three-way graph run), ext6
# (the shuffle strategy × parallelism sweep on the real engines), ext7
# (streaming latency percentiles, micro-batch vs per-event) and ext10
# (static planner regret vs a measured oracle) — whose reports land in
# BENCH_smoke.json, the per-push CI artifact the benchguard regression gate
# compares across pushes. GOGC is pinned and every go-test benchmark runs
# exactly one iteration so the measured cells see one collector schedule
# run-to-run instead of whatever heap the previous target left behind.
BENCH_GOGC ?= 100
BENCHTIME ?= 1x
bench-smoke:
	GOGC=$(BENCH_GOGC) $(GO) test -bench 'Ext|EngineWordCount|AblationPipelining' -benchtime $(BENCHTIME) -run '^$$' .
	GOGC=$(BENCH_GOGC) $(GO) run ./cmd/benchrunner -run tab1,ext4,ext6,ext7,ext10 -json BENCH_smoke.json

# The repo benchmark (BENCHMARK.json) at smoke-test scale, for correctness
# only: all four workloads on all three engines, every job checked against
# the single-threaded references. Fails unless there are four result lines,
# each with correct = true and failed = 0; the timings mean nothing at this
# scale. Result files go to a temp directory, not bench/out. CI runs this.
bench-tiny:
	$(GO) run ./bench -scale tiny -seconds 2 -out "$${TMPDIR:-/tmp}/bench-tiny" | awk ' \
		{ print } \
		/^\{/ { n++; if ($$0 !~ /^\{"correct":true,"attempted":[0-9]+,"failed":0,/) bad++ } \
		END { if (n != 4 || bad) { print "bench-tiny: " n+0 " result lines, " bad+0 " of them not correct"; exit 1 } }'

# CPU + allocation profiles of one workload on one engine's real path (a
# Benchmark* name from bench_test.go) under the same pinned GOGC as
# bench-smoke. Inspect with `go tool pprof cpu.pprof` / `go tool pprof
# mem.pprof`; go test leaves the test binary, repro.test, beside them.
# The scan path: `make profile PROFILE_BENCH=EngineGrepSpark` (or
# EngineGrepFlink, EngineGrepMapReduce), then `go tool pprof -top cpu.pprof` —
# the job is strings.Contains plus the dfs line cursor ((*lineCursor).next and
# its IndexByte); a runtime.memmove, countbody or memclrNoHeapPointers under
# internal/dfs means a source went back to copying or pre-counting a split.
# The aggregation path: `make profile PROFILE_BENCH=EngineWordCountFlink`,
# then `go tool pprof -peek 'workloads.appendFields$' repro.test cpu.pprof` —
# the tokenizer is about 10 % of samples (15 % while it read a byte at a
# time), called from FlatMapAppend's kernel, with nothing under it but its
# inlined lane test (flagged) and a little runtime.growslice (each kernel
# instance's scratch growing to a batch's words); a runtime.mallocgc under the
# tokenizer, or strings.Fields in its place, means a slice per line came back.
# The combine table's keyIndex.lookup is about 43 % (cumulative), with
# maphash.String (≈ 8 %) and memeqbody (≈ 3 %) under it; a core.HashKey or
# fnv1a frame under it means a combine path went back to the deterministic
# routing hash (it was 9 % of samples on its own).
PROFILE_BENCH ?= EngineWordCountSpark
PROFILE_TIME ?= 5s
profile:
	GOGC=$(BENCH_GOGC) $(GO) test -run '^$$' -bench $(PROFILE_BENCH) -benchtime $(PROFILE_TIME) -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

# Planner calibration probe: the ext10 size sweep on the real engines, each
# cell printed beside sim.Estimate's prediction with its residual, then the
# fixed part and per-MiB slope of every configuration. The [ANCHOR ext10]
# constants in internal/sim/estimate.go are read off this output; re-run it
# after any change that moves an engine's per-record cost.
calibrate:
	GOGC=$(BENCH_GOGC) $(GO) run ./cmd/benchrunner -calibrate

# ext10's wall-clock ratio gate (static planner regret ≤ 1.5× the measured
# oracle above a 5 ms gap). The ratio is re-measured in alternating runs by
# the experiment itself; it is millisecond-scale, so run this alone on the
# machine — it is not part of `go test ./...`, where
# TestExt10AdaptiveExecution checks only the report's shape.
ext10-gates:
	EXT10_GATES=1 $(GO) test -count=1 -run '^TestExt10Gates$$' -v ./internal/experiments

# Base-vs-working-tree comparison on workloads of the repo benchmark
# (BENCHMARK.json): `make bench-pair BASE=HEAD~1 WORKLOAD=wordcount` builds
# ./bench at BASE (exported with git archive into a temp dir, so nothing is
# written under .git and a crashed run leaves no worktree) and here, runs ten
# alternating pairs of BENCHMARK.json's run_seconds (24 s; the protocol has
# no knobs) with result files kept out of bench/out, and prints
# each side's median and quartiles per end-to-end metric. WORKLOAD is one
# name, a comma-separated list (WORKLOAD=terasort,grep) or `all`: one table
# per workload, so a claim and its no-regression rows come from one command.
# This box's speed drifts 10-30 % over minutes; nothing short of alternating
# pairs separates a change from the drift. Takes about ten minutes a workload.
bench-pair:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair BASE=<ref> WORKLOAD=<name>[,<name>...]|all"; exit 2; }
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(WORKLOAD)

# Short fuzz smoke over the byte decoders, the sort kernel, the split
# reader and WordCount's tokenizer: each fuzz target runs for a few seconds
# on top of its seeded corpus
# (arbitrary bytes into derived struct/slice/map decoders,
# arbitrary bytes into the block decode every engine fetches through — values
# that never alias their input and re-encode —, arbitrary keys through the
# shuffle's run sorter against a stable sort, arbitrary sorted segments
# (shared prefixes, short, empty and duplicate keys, with and without a
# normalized-key writer) through its prefix-first merge against a
# comparator-only stable merge, arbitrary keys, resets and growth
# through the combine table every engine folds with — its typed key index
# under a test-hook hash of four values, so probe chains are crowded with
# distinct keys — against a map fold,
# arbitrary bytes × block size × buffer length × newline-aligned part cuts
# through the dfs line reader every text source streams against
# bytes.Split, random keyed pairs × partition counts × pre-partitioned
# sides through spark's CoGroup and Join against a map-based reference,
# random keyed pairs × partition counts × a static or dynamic side through
# flink's Join inside a one-to-three-superstep bulk iteration against nested
# loops, and arbitrary bytes after a non-empty prefix through WordCount's
# eight-bytes-at-a-time tokenizer (appendFields; seeds put words, control
# bytes and non-ASCII bytes at every lane position) against strings.Fields,
# the prefix untouched).
# CI runs this on every push; longer local sessions just raise -fuzztime.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDerivedDecode$$' -fuzztime $(FUZZTIME) ./internal/serde
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAll$$' -fuzztime $(FUZZTIME) ./internal/serde
	$(GO) test -run '^$$' -fuzz '^FuzzSortByNormKey$$' -fuzztime $(FUZZTIME) ./internal/shuffle
	$(GO) test -run '^$$' -fuzz '^FuzzMerge$$' -fuzztime $(FUZZTIME) ./internal/shuffle
	$(GO) test -run '^$$' -fuzz '^FuzzCombineTable$$' -fuzztime $(FUZZTIME) ./internal/shuffle
	$(GO) test -run '^$$' -fuzz '^FuzzLineBatches$$' -fuzztime $(FUZZTIME) ./internal/dfs
	$(GO) test -run '^$$' -fuzz '^FuzzCoGroup$$' -fuzztime $(FUZZTIME) ./internal/engine/spark
	$(GO) test -run '^$$' -fuzz '^FuzzJoin$$' -fuzztime $(FUZZTIME) ./internal/engine/flink
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFields$$' -fuzztime $(FUZZTIME) ./internal/workloads
