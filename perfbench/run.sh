#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binaries, traces) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/popsd" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/popsd and perfbench/ expected)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
