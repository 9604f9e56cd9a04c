#!/usr/bin/env bash
# Builds the benchmark and the agingserve daemon from the checkout's sources
# into .bench_build, then runs the benchmark from the checkout's root:
#
#   bash perfbench/run.sh --workload fleet-frozen --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the go command's own config and
# telemetry directory stay inside .bench_build too.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/agingserve" ./cmd/agingserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
