#!/usr/bin/env bash
# Builds ebmbench from this checkout and runs it with the given arguments:
#
#   bash bench/run.sh --workload engine-mem --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary, the
# run's scratch files and the trace output all stay under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/ebmbench" ./ebmbench)
cd "$root"
exec "$out/ebmbench" "$@"
