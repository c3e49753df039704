#!/usr/bin/env bash
# run.sh builds the rfidbench benchmark from the checkout's sources and runs
# it from the checkout root, passing every argument through:
#
#   bash cmd/rfidbench/run.sh --workload taglevel --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (the Go build cache, the
# binary, span files, temporary checkpoint directories) goes under
# .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
(cd cmd/rfidbench && go build -o "$out/rfidbench" .)
exec "$out/rfidbench" "$@"
