#!/usr/bin/env bash
# Builds the steerq benchmark from the checkout it sits in and runs it.
#
# Usage, from the root of a checkout:
#   bash perfbench/run.sh --workload discover|learn|serve --seed N --seconds S --trace 0|1
#
# The build cache, temp files, the go command's config and the binary stay
# under .bench_build/ in the checkout, and the go command may not fetch
# anything: the benchmark is stdlib-only and resolves steerq from the
# parent directory. Build output goes to standard error, so the last line
# of standard output is always the benchmark's own JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/steerq-perfbench" .) 1>&2
exec "$out/steerq-perfbench" "$@"
