#!/usr/bin/env bash
# Builds mcmd and the perfbench program from the checkout this is run in,
# then runs perfbench with the given arguments:
#
#	bash perfbench/run.sh --workload mean-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binaries, result and span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

go build -o "$out/bin/mcmd" ./cmd/mcmd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -mcmd "$out/bin/mcmd" -out "$out/results" "$@"
