#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the root of
# the checkout. Everything Go writes (build cache, temporary files, the
# binaries, the generated inputs) stays under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/parsim" ]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod, no cmd/parsim): nothing to measure" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/harness" .)
cd "$root"
exec "$build/harness" "$@"
