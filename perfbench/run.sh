#!/usr/bin/env bash
# Builds cmd/reprod, cmd/repro and the benchmark from the source tree the
# script is run in, then runs the benchmark. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 20 --trace 0
#
# Every file it writes (build cache, binaries, daemon checkpoint
# directories) lands under .bench_build, or under $CARGO_TARGET_DIR when
# that is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/home"

# Keep the toolchain's caches and config inside the build directory and
# never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -buildvcs=false -o "$out/bin/" ./cmd/reprod ./cmd/repro
go -C perfbench build -buildvcs=false -o "$out/bin/perfbench" .

commit=none
if [ -d "$root/.git" ]; then commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none); fi
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out" -commit "$commit" "$@"
