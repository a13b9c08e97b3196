#!/usr/bin/env bash
# Builds the epoch benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash epochbench/run.sh --workload trickle-1m --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under the build directory: $CARGO_TARGET_DIR when set, otherwise
# .bench_build. The benchmark module resolves the detection service from
# the parent directory, so outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench" && go build -o "$build/epochbench" .)
exec "$build/epochbench" "$@"
