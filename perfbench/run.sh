#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from, then
# runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) lands under $CARGO_TARGET_DIR (default .bench_build), relative to
# the current directory unless absolute, and so do the spans of a traced
# run (--trace 1), as spans/<workload>-<seed>.jsonl. Build output goes to
# stderr; the last line of stdout is the result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$bench" && go build -buildvcs=false -o "$build/perfbench" .) >&2

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --commit "$commit" --spans-dir "$build/spans" "$@"
