# Verification entry points. `make check` is the full gate a change must
# pass; CI and the tier-1 recipe in ROADMAP.md both run it.

GO ?= go

.PHONY: check build test vet vet-extra vulncheck race flake lint-suite cost-gate fuzz bench bench-hot trace-sample explore-smoke explore-baseline scenario-gate scenario-baseline stream-gate perf-pairs

check: vet vet-extra vulncheck build test race flake lint-suite cost-gate explore-smoke scenario-gate stream-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Extra analyzers beyond the stock vet set. Their tool binaries are not part
# of the Go distribution, so they run only when installed (CI installs them;
# offline machines skip with a note):
#   go install golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@latest
#   go install golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@latest
# nilness is a hard gate; shadow is advisory (its heuristic flags idiomatic
# err reuse), so its findings print without failing the build.
vet-extra:
	@if command -v nilness >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v nilness) ./...; \
	else echo "vet-extra: nilness not installed; skipping"; fi
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./... || true; \
	else echo "vet-extra: shadow not installed; skipping"; fi

# Known-vulnerability scan over the module graph and reachable call paths.
# Needs network for the vuln DB, so it runs where govulncheck is installed
# (CI: go install golang.org/x/vuln/cmd/govulncheck@latest).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "vulncheck: govulncheck not installed; skipping"; fi

race:
	$(GO) test -race ./...

# Flake detector: the engine's scheduling tests and the scenario layer's
# determinism, input and multiprocessor checks (one scheduler serves both
# mappings), repeated in shuffled order so an interleaving-dependent test
# fails here rather than once in a while in `make test`.
FLAKE_SCENARIO = TestDeterminism|TestRunRejectsBadInputs|TestClusterRunsCorrectly|TestNodesAreIsolated|TestBusContentionGrowsWithNodes|TestSharedBusCausality|TestLoadErrors|TestClusterAttributionConserves
flake:
	$(GO) test -run TestEngine -count=50 -shuffle=on ./internal/experiments
	$(GO) test -run '$(FLAKE_SCENARIO)' -count=3 -shuffle=on ./internal/scenario

# Zero error-severity hazard findings across every benchmark × Table 1
# scheme — the software-interlock invariant of the whole toolchain.
lint-suite:
	$(GO) run ./cmd/mipsx-lint -suite

# Static-vs-dynamic differential gate: for every benchmark × Table 1 scheme
# the static cycle-cost model's prediction must EXACTLY equal the
# attribution ledger's execute/nop/squash-annul base causes. Runs inside
# `make test` too; the named target keeps the invariant visible in CI.
cost-gate:
	$(GO) test ./internal/experiments -run TestStaticCostMatchesLedgerEveryBenchmarkEveryScheme -count=1

# Longer exploration of the pipeline-vs-golden-model differential over
# lint-clean raw programs and over compiled tinyc (whose build lints its
# output), the spec JSON and sweep boundaries, the trace encoder against its
# json.Marshal reference, the window-stream decoder, the assembler's layout
# bounds, the document parsers and tinyc source text built under every
# Table 1 scheme (CI smokes all nine on every merge, 30 s each; the ninth,
# FuzzCompileReorgLint, raised CI's fuzz budget by 30 s).
# FuzzDocuments' seeds are 2-40 KB documents and FuzzRawVsRefmodel finds a
# new input every few hundred runs, so each new input is minimized for 1 s,
# not the default 60 s that would take most of the budget.
fuzz:
	$(GO) test ./internal/refmodel -fuzz=FuzzRawVsRefmodel -fuzztime=60s -fuzzminimizetime=1s -run '^$$'
	$(GO) test ./internal/refmodel -fuzz=FuzzPipelineVsRefmodel -fuzztime=60s -run '^$$'
	$(GO) test ./internal/spec -fuzz=FuzzSpecParse -fuzztime=60s -run '^$$'
	$(GO) test ./internal/spec -fuzz=FuzzSweep -fuzztime=60s -run '^$$'
	$(GO) test ./internal/obs -fuzz=FuzzTraceEncode -fuzztime=60s -run '^$$'
	$(GO) test ./internal/obs -fuzz=FuzzParseWindowStream -fuzztime=60s -run '^$$'
	$(GO) test ./internal/asm -fuzz=FuzzAssemble -fuzztime=60s -run '^$$'
	$(GO) test ./internal/experiments -fuzz=FuzzDocuments -fuzztime=60s -fuzzminimizetime=1s -run '^$$'
	$(GO) test ./internal/lint -fuzz=FuzzCompileReorgLint -fuzztime=60s -run '^$$'

# Bench-regression tracking, three passes. The serial pass (every cell
# live at -parallel 1, no cache) must match the recorded golden tables and
# total_cycles_simulated (exit 1 on drift) and writes its report to
# BENCH_serial.json. The cold (recording) and hot (replaying) passes over
# one cache directory run at the default parallelism, where cells wait on
# each other's captures, and must reproduce the serial pass's tables,
# total_cycles_simulated and per-cause attribution exactly (-check
# compares the totals over the same experiments, and the attribution the
# baseline carries), so scheduling nondeterminism and unsound memo keys
# both surface as drift. The hot
# pass's report is BENCH_pr.json (with the observation-overhead
# measurement recorded); then the Go benchmarks run once. CI uploads
# BENCH_pr.json. The greps are the attribution gate: the report must carry
# the cycle-attribution breakdown with conservation passing, both
# engine-wide and per cell (more than one "attribution" key means the
# cell_timings entries carry their own).
BENCHCACHE ?= .benchcache
bench:
	rm -rf $(BENCHCACHE)
	$(GO) run ./cmd/mipsx-bench -parallel 1 -check BENCH_baseline.json -json > BENCH_serial.json
	$(GO) run ./cmd/mipsx-bench -check BENCH_serial.json -cache $(BENCHCACHE) -json > BENCH_cold.json
	$(GO) run ./cmd/mipsx-bench -check BENCH_serial.json -cache $(BENCHCACHE) -json -obs-overhead > BENCH_pr.json
	grep -q '"attribution_conserved": true' BENCH_pr.json
	grep -q '"attribution_conserved": true' BENCH_cold.json
	test `grep -c '"attribution"' BENCH_pr.json` -gt 1
	grep -q '"obs_overhead"' BENCH_pr.json
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Sample observability artifacts: a Perfetto-loadable event trace and an
# attribution report from one benchmark run (CI uploads both).
trace-sample:
	$(GO) run ./cmd/mipsx-run -bench bubblesort -breakdown \
		-trace-out trace_sample.json -breakdown-out breakdown_sample.json

# Hot-only pass against an existing cache directory (after `make bench`).
bench-hot:
	$(GO) run ./cmd/mipsx-bench -check BENCH_baseline.json -cache $(BENCHCACHE) -json > BENCH_pr.json

# Explorer smoke gate: a small Icache-geometry sweep (6 design points × 2
# benchmarks) through mipsx-explore must reproduce the recorded golden
# mipsx-explore/v1 document byte-for-byte — CPI, area, code size, Pareto
# flags and every per-point attribution count. The document carries no
# timestamps, so any drift is a real change to simulated behavior (or a
# deliberate one, reseeded with explore-baseline in the same PR).
EXPLORE_ARGS = -axis icache.sets=2,4,8 -axis icache.fetch_back=1,2 -benches fib,sieve
explore-smoke:
	$(GO) run ./cmd/mipsx-explore $(EXPLORE_ARGS) -check EXPLORE_baseline.json

# Reseed the explorer golden document (deliberate changes only).
explore-baseline:
	$(GO) run ./cmd/mipsx-explore $(EXPLORE_ARGS) -json > EXPLORE_baseline.json

# Multiprogramming scenario gate: the default (workload × quantum × policy)
# grid must reproduce the recorded mipsx-scenario/v1 document byte-for-byte.
# Every cell is conservation-verified inside scenario.Run (the shared ledger
# must equal per-context cycles + switch overhead + flush stalls), and the
# pid-policy cells must charge zero context-switch/flush-refill cycles —
# mipsx-bench re-checks that invariant before comparing, so a reseeded
# baseline cannot smuggle it away.
scenario-gate:
	$(GO) run ./cmd/mipsx-bench -scenario -check SCENARIO_baseline.json

# Reseed the scenario golden document (deliberate changes only).
scenario-baseline:
	$(GO) run ./cmd/mipsx-bench -scenario -json > SCENARIO_baseline.json

# Streaming observability gate, four layers. (1) The tracer, encoder,
# disassembler and window unit and seam tests: every streamed line equal to
# the json.Marshal reference encoder (per event kind, across pipe-span
# start carries such as 999,999→1,000,000, on the fuzz seeds, and
# on a machine run that traps and uses the coprocessor), the fmt-based
# disassembler reference on 1M random words, the whole suite's trace pinned
# by digest, span labels re-encoded when code is rewritten or two pcs share
# a memo line, zero allocations per event (pipe-span starts stepped in
# place, backwards and across digit counts) and per traced cycle, a
# scenario's refusal of instruction spans, windowed
# conservation across squash and context-switch boundaries, E12's window
# table and three window streams pinned by digest, an idempotent Flush,
# observation purity with streaming tracers + windowed ledgers attached,
# and the window-stream decoder's fuzz seeds.
# (2) End-to-end: mipsx-run -trace-out
# on the golden-trace workload must write the committed golden trace byte
# for byte. (3) A live windowed run whose mipsx-obswin/v1 stream mipsx-trace
# -follow -once replays with every per-window conservation check passing.
# (4) The wall-clock budget gate (OBS_BUDGET=1): medians of interleaved
# off/on pairs keep the ledger and windowed ledger within the documented
# budget and the streamed tracer within its backstop.
TRACE_TESTDATA = internal/core/testdata
stream-gate:
	$(GO) test ./internal/obs -run 'TestStream|TestStart|TestWindow|TestParseWindowStream|TestEncoderMatchesReference|TestTraceAllocs|FuzzTraceEncode|FuzzParseWindowStream' -count=1
	$(GO) test ./internal/isa -run 'TestAppend' -count=1
	$(GO) test ./internal/core -run 'TestTraceGolden|TestTraceSuiteDigest|TestTraceLabelsNameRetiredInstruction|TestStreamedTraceByteIdenticalMachine|TestStreamNeverDropsOnMachineRun|TestObservationPurityStreamingAndWindows|TestWindowSeam' -count=1
	$(GO) test ./internal/scenario -run 'TestWindow|TestRunRejectsInstructionTracer' -count=1
	$(GO) test ./internal/experiments -run 'TestCycleLoopAllocatesNothing' -count=1
	$(GO) test ./cmd/mipsx-trace ./cmd/mipsx-run -count=1
	$(GO) run ./cmd/mipsx-run -trace-out .streamgate_trace.json $(TRACE_TESTDATA)/trace_program.s > /dev/null
	cmp .streamgate_trace.json $(TRACE_TESTDATA)/trace_golden.json
	$(GO) run ./cmd/mipsx-run -bench bubblesort -obs-window 4096 -obs-window-out .streamgate_win.jsonl > /dev/null
	$(GO) run ./cmd/mipsx-trace -follow .streamgate_win.jsonl -once > /dev/null
	OBS_BUDGET=1 $(GO) test ./internal/experiments -run TestObsOverheadBudget -count=1 -v
	rm -f .streamgate_trace.json .streamgate_win.jsonl

# Paired perf runs: the working tree against BASE (a git revision, exported
# with git archive into .bench_pairs/), PAIRS alternating perfbench runs of
# WORKLOAD that switch which side goes first. Prints each side's median and
# quartiles per metric, the pairs the working tree won, and whether a median
# is worse than the parent's by more than its BENCHMARK.json bound. Refuses
# to run when perfbench/ or BENCHMARK.json differs from BASE.
PAIRS ?= 10
SECONDS ?= 20
SEED ?= 0
TRACE ?= 0
perf-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make perf-pairs BASE=<rev> WORKLOAD=<w> [PAIRS=10 SECONDS=20 SEED=0 TRACE=0]"; exit 2; }
	python3 tools/perfpairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(SECONDS) --seed $(SEED) --trace $(TRACE)
