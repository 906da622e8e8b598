#!/usr/bin/env bash
# Gates the gated benchmarks of this checkout (the head) against a checkout
# of its parent on the same host. The two sides run in three alternating
# rounds, parent first (parent, head, parent, head, parent, head), one
# repetition per side per round, so host noise falls on both sides alike.
# iokbenchgate keeps each benchmark's minimum over the rounds and fails when
# the head is more than 30% slower than the parent.
#
# Each benchmark runs for 100ms per round, not the 5 iterations of the
# committed-baseline gate: 5 iterations of a microsecond benchmark are too
# short to time, and at 5x the parent gated against itself read up to 68%
# apart on a 2-vCPU host.
#
# Usage, from the head checkout, with GATED set to the gated benchmark
# regex (the bench-regression job of .github/workflows/ci.yml sets it):
#
#	.github/scripts/bench-parent.sh PARENT_DIR
#
# PARENT_DIR is a checkout of the parent (CI uses a git worktree of the
# merge base). The script leaves bench_parent.txt, bench_head.txt,
# BENCH_parent.json and BENCH_head.json in the working directory.
set -euo pipefail

parent=${1:?usage: bench-parent.sh PARENT_DIR}
bench=${GATED:?set GATED to the gated benchmark regex of the bench-regression job}

run() {
	(cd "$1" && go test -run '^$' -bench "$bench" -benchtime=100ms -count=1 ./...)
}

: >bench_parent.txt
: >bench_head.txt
for round in 1 2 3; do
	echo "round $round of 3: parent" >&2
	run "$parent" >>bench_parent.txt
	echo "round $round of 3: head" >&2
	run . >>bench_head.txt
done

go run ./cmd/iokbenchgate -in bench_parent.txt -emit BENCH_parent.json
go run ./cmd/iokbenchgate -in bench_head.txt -emit BENCH_head.json \
	-baseline BENCH_parent.json -max-regress 0.30
