#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload embed_update_skew --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
