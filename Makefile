# Developer entry points. The Go toolchain is the only dependency.

GO ?= go

.PHONY: all verify race chaos dsweep-chaos bench obs-bench figs-bench \
    ckpt-bench trace-bench search-bench policy-bench dsweep-bench \
    cover test build

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: everything must compile, be gofmt-clean,
# vet clean (plus staticcheck where installed), and pass.
verify:
	$(GO) build ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	$(GO) test ./...
	$(GO) test -race ./internal/runner/... ./internal/resilience/... \
	    ./internal/ckpt/... ./internal/obs/... ./internal/search/... \
	    ./internal/policy/... ./internal/dsweep/...
	$(GO) test -race -run 'TestEnvWarmSimCacheBitIdentical|TestGridSingleflightUnderConcurrency' \
	    ./internal/experiments/

# race runs the short test suite under the race detector (the grid builder
# and profiler are the only concurrent paths).
race:
	$(GO) test -race -short ./...

# chaos runs the fault-injection suite (DESIGN.md §10) under the race
# detector: injected cache and checkpoint I/O faults, a task panic,
# watchdog trips on a stalled engine, and a real SIGINT mid-grid-build
# with clean resume.
chaos:
	$(GO) test -race -run 'Chaos|Cancel|Watchdog|Degrade|Injected|MidWrite|Fault|SIGINT' \
	    . ./internal/sim/... ./internal/simcache/... ./internal/ckpt/... \
	    ./internal/faultinject/... ./internal/resilience/... \
	    ./internal/runner/... ./internal/cli/...

# dsweep-chaos runs the distributed-sweep failure storyline (DESIGN.md
# §15) under the race detector: a worker killed mid-cell, a
# heartbeat-dropping zombie whose completions are fenced off, injected
# cache write faults, a coordinator restart from its state checkpoint —
# ending bit-identical to a single-process sweep — plus the dsweep
# package's lease/fencing/drain unit tests.
dsweep-chaos:
	$(GO) test -race -run 'TestDsweepChaos' .
	$(GO) test -race ./internal/dsweep/...

# bench snapshots the substrate benchmarks into BENCH_*.json via
# cmd/benchdiff; BENCH=BENCH_2.json picks the output file, and
# OLD=BENCH_1.json additionally prints a comparison table.
BENCH ?= BENCH_1.json
OLD ?=
bench:
	$(GO) run ./cmd/benchdiff -out $(BENCH) $(if $(OLD),-old $(OLD))

# obs-bench enforces the observability overhead contract (DESIGN.md §7):
# the fully-instrumented simulator benchmark must stay within 5% of the
# plain one, measured in the same run, and the result is also diffed
# against the BENCH_1.json baseline.
obs-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'SimulatorCycles' -benchtime 5x -count 5 -out '' \
	    -old BENCH_1.json \
	    -maxratio 'BenchmarkSimulatorCyclesObs/BenchmarkSimulatorCycles=1.05'

# policy-bench enforces the sandbox overhead contract (DESIGN.md §14):
# the sandboxed simulator benchmark must stay within 5% of the plain one,
# measured in the same run. The timings are snapshotted into BENCH_9.json.
policy-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'SimulatorCycles' -benchtime 5x -count 5 -out BENCH_9.json \
	    -maxratio 'BenchmarkSimulatorCyclesSandboxed/BenchmarkSimulatorCycles=1.05'

# figs-bench enforces the warm-cache contract (DESIGN.md §8): a
# `paperfigs -all -quick`-shaped regeneration against a prewarmed result
# cache must take at most 0.2x of the cold run (a >=5x speedup). The
# cold/warm timings are snapshotted into BENCH_3.json.
figs-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'PaperFigsQuick' -benchtime 1x -count 3 -out BENCH_3.json \
	    -maxratio 'BenchmarkPaperFigsQuickWarm/BenchmarkPaperFigsQuickCold=0.2'

# ckpt-bench enforces the sub-linear cold-sweep contract (DESIGN.md §11):
# a cold 36-cell grid sweep forking from prefix checkpoints must take at
# most 0.5x of the same sweep simulated from cycle zero, measured in the
# same run. The cold/forked timings are snapshotted into BENCH_6.json.
ckpt-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'CkptSweep' -benchtime 1x -count 3 -out BENCH_6.json \
	    -maxratio 'BenchmarkCkptSweepForked/BenchmarkCkptSweepCold=0.5'

# trace-bench enforces the span-tracing + provenance overhead contract
# (DESIGN.md §12): a cold grid sweep with a live tracer and ledger must
# stay within 5% of the uninstrumented sweep, measured in the same run.
# The plain/traced timings are snapshotted into BENCH_7.json.
trace-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'TraceSweep' -benchtime 1x -count 3 -out BENCH_7.json \
	    -maxratio 'BenchmarkTraceSweepTraced/BenchmarkTraceSweepPlain=1.05'

# search-bench enforces the adaptive-search contract (DESIGN.md §13): the
# coarse-to-fine successive-halving search over a cold 64-cell TLP grid
# must take at most 0.5x of the exhaustive sweep, measured in the same
# run, while selecting the identical optimum. The exhaustive/adaptive
# timings — and the ebm_cycles_simulated ratio, recorded as an extra
# simcycles/op unit — are snapshotted into BENCH_8.json.
search-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'AdaptiveVsExhaustive' -benchtime 1x -count 3 -out BENCH_8.json \
	    -maxratio 'BenchmarkAdaptiveVsExhaustive/adaptive:BenchmarkAdaptiveVsExhaustive/exhaustive=0.5'

# dsweep-bench enforces the distributed-overhead contract (DESIGN.md
# §15): sweeping the 9-cell grid through the coordinator/worker wire
# protocol with one worker must stay within 10% of the same sweep run
# locally and sequentially, measured in the same run. The local/
# distributed timings are snapshotted into BENCH_10.json.
dsweep-bench:
	$(GO) run ./cmd/benchdiff -pkgs . \
	    -bench 'DistSweep' -benchtime 1x -count 3 -out BENCH_10.json \
	    -maxratio 'BenchmarkDistSweepOneWorker/BenchmarkDistSweepLocal=1.10'

# cover prints per-package statement coverage and enforces a floor on
# internal/obs, whose span/ledger/exposition paths this repo's explain
# workflow leans on.
OBS_COVER_FLOOR ?= 80.0
cover:
	@$(GO) test -cover ./... | tee /tmp/ebm_cover.txt
	@obs=$$(awk '$$2 == "ebm/internal/obs" { for (i=1;i<=NF;i++) if ($$i ~ /^coverage:/) { sub("%","",$$(i+1)); print $$(i+1) } }' /tmp/ebm_cover.txt); \
	if [ -z "$$obs" ]; then echo "cover: no coverage line for internal/obs"; exit 1; fi; \
	ok=$$(awk -v c="$$obs" -v f="$(OBS_COVER_FLOOR)" 'BEGIN { print (c+0 >= f+0) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then \
	    echo "cover: internal/obs coverage $$obs% is below the $(OBS_COVER_FLOOR)% floor"; exit 1; \
	else \
	    echo "cover: internal/obs coverage $$obs% meets the $(OBS_COVER_FLOOR)% floor"; \
	fi
