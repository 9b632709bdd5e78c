#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash swbench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache,
# temporary files, the binary, checkpoints and span dumps. The last line
# of standard output is the benchmark's JSON result; a failed build exits
# non-zero without printing one.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/swbench" .) >&2
exec "$build/swbench" --workdir "$build/swbench-work" "$@"
