#!/usr/bin/env bash
# Builds perfbench from the source of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-mixed --seed 1 --seconds 16 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files, the go
# command's own configuration and telemetry) stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: go.mod or perfbench/go.mod is missing" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
