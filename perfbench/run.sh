#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no Go module at the checkout root; nothing to benchmark" >&2
	exit 2
fi
mkdir -p "$build"

# Keep every toolchain cache inside the checkout and never reach for the
# network: the module has no dependencies beyond the parent module.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
