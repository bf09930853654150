#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash campaignbench/run.sh --workload suite-pairs --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout and no module is downloaded.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export BENCH_COMMIT
fi
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
# Pin the whole process to one CPU, the last one, so the speed probe
# (calib.go) samples the same core the campaign runs on. Without taskset,
# or if that CPU is not ours, run unpinned.
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
	exec taskset -c "$cpu" "$out/campaignbench" "$@"
fi
exec "$out/campaignbench" "$@"
