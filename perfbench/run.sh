#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload spike-dta --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build and module caches, the go command's configuration
# and telemetry directory, and the Chrome trace files all go under
# .bench_build/ in the current directory, so a run writes nothing outside the
# checkout it is started from. The benchmark is its own module
# (perfbench/go.mod) that replaces the repository module with the parent
# directory; outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
