#!/usr/bin/env bash
# Builds cmd/iokserve and the benchmark program from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, server data
# directories, reports) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/iokserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an iokast checkout (cmd/iokserve and go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and usage counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/iokserve" ./cmd/iokserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -server "$out/bin/iokserve" -workdir "$out/runs" "$@"
