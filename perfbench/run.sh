#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it.
#
#   bash perfbench/run.sh --workload rpc-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build, or
# under the directory CARGO_TARGET_DIR names when it is set, so a run
# touches nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a checkout that holds the repro module" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" == /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
