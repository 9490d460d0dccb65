#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files and the binary all live under .bench_build/ at that
# root, so nothing is read or written outside the checkout except the Go
# toolchain itself. Without the parent module (go.mod and internal/ one
# directory up) the build fails and the script exits non-zero before
# printing any result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOENV=off

(cd "$here" && go build -o "$out/prosper-benchmark" .)
exec "$out/prosper-benchmark" "$@"
