#!/usr/bin/env bash
# Builds memosim and the perfbench program from the checkout's sources and
# runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload tiny-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/memosim || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a memotable checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/memosim" ./cmd/memosim
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -memosim "$out/memosim" -out "$out" "$@"
