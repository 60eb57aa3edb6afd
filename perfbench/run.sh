#!/usr/bin/env bash
# Builds the benchmark and mpsmd from the source tree it sits in, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk-equi --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
#
# Build outputs, the Go build cache, results and traces all go to
# .bench_build/ under the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/mpsmd ]; then
	echo "perfbench: $root is not a repository checkout (no go.mod or cmd/mpsmd)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep every file the Go toolchain writes inside the checkout, and never
# switch or download toolchains.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/mpsmd" ./cmd/mpsmd >&2
if [ "${1:-}" = compare ]; then
	exec "$build/bin/perfbench" "$@"
fi
exec "$build/bin/perfbench" -mpsmd "$build/bin/mpsmd" -out "$build/results" "$@"
