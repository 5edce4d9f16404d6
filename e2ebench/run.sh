#!/usr/bin/env bash
# Builds rtserve and the e2ebench program from the checkout, then runs one
# workload:
#
#   bash e2ebench/run.sh --workload cold-edit --seed 1 --seconds 45 --trace 0
#
# Run from the repository root.  Build outputs, the Go build cache and all
# run artifacts stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$out/e2ebench" . >&2
go build -o "$out/rtserve" ./cmd/rtserve >&2

commit=${BENCH_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}
exec "$out/e2ebench" -rtserve "$out/rtserve" -workdir "$out" -commit "$commit" "$@"
