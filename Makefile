# Developer entry points. The Go toolchain is the only dependency.

GO ?= go

.PHONY: all verify race chaos dsweep-chaos fuzz cover test build

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: everything must compile, be gofmt-clean,
# vet clean (plus staticcheck where installed), and pass. bench/ is its
# own module, so ./... never reaches it; vetting it separately compiles
# the benchmark harness (tests included) against the root packages, so a
# root API change that breaks it fails here. Its tests are slower (about
# a minute) and run separately: cd bench && go test ./... The DRAM replay
# benchmark, the tag-store benchmark (the caches' own, an L2-geometry
# Access/Fill mix) and the core-tick benchmark (one core with fills
# echoed back) run once and the per-cycle engine benchmark for 2000
# cycles, so neither the capture hook and replay, the cache and core
# benchmarks' inputs nor the engine benchmark's machine set-up can rot unseen. The two fuzz targets that hold the engine's skips
# to the every-cycle engine (a partition ticked from its NextTick on and
# forked mid-stall; the whole engine against the reference), the one
# that holds the result cache's entry decoder to encoding/json and the
# one that holds its key walk injective each explore for 5 s past their
# seeds, from an empty fuzz cache as in `make fuzz`.
verify:
	$(GO) build ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	$(GO) test ./...
	$(GO) test -run '^$$' -bench 'BenchmarkPartitionReplay' -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkTagStore' -benchtime 1x ./internal/cache/
	$(GO) test -run '^$$' -bench 'BenchmarkCoreTick' -benchtime 1x ./internal/gpu/
	$(GO) test -run '^$$' -bench 'BenchmarkCycleTick' -benchtime 2000x ./internal/sim/
	@cache=$$(mktemp -d) && trap 'rm -rf "$$cache"' EXIT && \
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionForkMatches$$' -fuzztime 5s ./internal/dram/ \
	    -args -test.fuzzcachedir="$$cache/dram" && \
	$(GO) test -run '^$$' -fuzz '^FuzzFastForwardMatchesReference$$' -fuzztime 5s ./internal/sim/ \
	    -args -test.fuzzcachedir="$$cache/sim" && \
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 5s ./internal/simcache/ \
	    -args -test.fuzzcachedir="$$cache/simcache" && \
	$(GO) test -run '^$$' -fuzz '^FuzzKeyInjective$$' -fuzztime 5s ./internal/simcache/ \
	    -args -test.fuzzcachedir="$$cache/simcache-key"
	$(GO) test -race ./internal/runner/... ./internal/resilience/... \
	    ./internal/ckpt/... ./internal/obs/... ./internal/search/... \
	    ./internal/dsweep/... ./internal/profile/... ./internal/simcache/...
	$(GO) test -race -run 'TestEnvWarmSimCacheBitIdentical|TestGridSingleflightUnderConcurrency' \
	    ./internal/experiments/

# race runs the short test suite under the race detector. The concurrent
# paths are the ones verify races in full: the runner pool behind grid
# builds and profiling, the resilience monitor, the checkpoint store's
# shared reads, the result cache's pooled read buffers, obs spans and
# metrics, adaptive search and the distributed sweep.
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

# fuzz runs each fuzz target for FUZZTIME past its seed corpus (the
# seeds alone already run under `go test`): the scheme grammar's
# parse/print fixed point, the fast-forward engine against the plain
# reference engine, a memory partition forked through State/SetState
# against the original, the result cache's entry decoder against
# encoding/json, and its key walk for injectivity. A failing input is saved under the package's
# testdata/fuzz/ and replays as a regression test from then on. Each run
# starts from an empty, throwaway fuzz cache: with the cache the go
# command keeps between runs, the slow engine target spent its whole
# budget re-gathering baseline coverage over its cached inputs and
# tried none of its own.
FUZZTIME ?= 20s
fuzz:
	@cache=$$(mktemp -d) && trap 'rm -rf "$$cache"' EXIT && \
	$(GO) test -run '^$$' -fuzz '^FuzzParseScheme$$' -fuzztime $(FUZZTIME) ./internal/spec/ \
	    -args -test.fuzzcachedir="$$cache/spec" && \
	$(GO) test -run '^$$' -fuzz '^FuzzFastForwardMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/sim/ \
	    -args -test.fuzzcachedir="$$cache/sim" && \
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionForkMatches$$' -fuzztime $(FUZZTIME) ./internal/dram/ \
	    -args -test.fuzzcachedir="$$cache/dram" && \
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime $(FUZZTIME) ./internal/simcache/ \
	    -args -test.fuzzcachedir="$$cache/simcache" && \
	$(GO) test -run '^$$' -fuzz '^FuzzKeyInjective$$' -fuzztime $(FUZZTIME) ./internal/simcache/ \
	    -args -test.fuzzcachedir="$$cache/simcache-key"

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
