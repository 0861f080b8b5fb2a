#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ at the repository root
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload streams --seed 1 --seconds 45 --trace 0
#
# Every Go cache and config directory is kept under .bench_build/, so the
# build writes nothing outside the checkout and needs no network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
