#!/usr/bin/env bash
# lint.sh — the full lint suite, identical to CI's lint-build job.
#
# Run it (or `make lint`) before pushing: every check here gates merges, so a
# clean local run means the lint job cannot be the reason CI goes red.
#
#   1. gofmt         — formatting, including analyzer testdata fixtures
#   2. go vet        — the stock analyzers
#   3. staticcheck   — pinned via go.mod (see tools.go); skipped with a
#                      warning when the module cache is cold and the network
#                      is unreachable, so offline dev containers still get
#                      the rest of the suite
#   4. datawa-lint   — the repo's own go/analysis suite (determinism, lock
#                      discipline, hot-path allocations, exposition format),
#                      built from source and run through go vet -vettool so
#                      package loading matches the build exactly
#   5. perfbench     — go vet and go test in the benchmark module
#                      (perfbench/go.mod), which compiles against the
#                      repo's internal packages
set -u
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needs to run on:"
    echo "$unformatted"
    fail=1
fi

echo "== go vet =="
go vet ./... || fail=1

echo "== staticcheck =="
# Probe with GOFLAGS=-mod=mod disabled and network-free resolution first: if
# the pinned module is neither in the build cache nor downloadable, skip
# rather than fail — CI always runs it, so nothing merges unchecked.
if GOPROXY=off go run honnef.co/go/tools/cmd/staticcheck -debug.version >/dev/null 2>&1; then
    go run honnef.co/go/tools/cmd/staticcheck ./... || fail=1
elif go run honnef.co/go/tools/cmd/staticcheck -debug.version >/dev/null 2>&1; then
    go run honnef.co/go/tools/cmd/staticcheck ./... || fail=1
else
    echo "staticcheck unavailable (cold module cache, no network); skipping — CI still runs it"
fi

echo "== datawa-lint =="
mkdir -p bin
if go build -o bin/datawa-lint ./cmd/datawa-lint; then
    go vet -vettool="$PWD/bin/datawa-lint" ./... || fail=1
else
    fail=1
fi

echo "== perfbench =="
(cd perfbench && go vet ./... && go test ./...) || fail=1

if [ "$fail" -ne 0 ]; then
    echo "LINT FAILED"
    exit 1
fi
echo "LINT OK"
