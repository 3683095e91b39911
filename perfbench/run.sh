#!/usr/bin/env bash
# Builds the benchmark from the sources of the current checkout and runs it
# with the given arguments. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload shard-1m --seed 1 --seconds 20 --trace 0
#
# The Go build cache, its temporary files, the binary and the traced runs'
# span files all stay under .bench_build/ in the repository root; no module
# is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
