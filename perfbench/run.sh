#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload sweep-fig10 --seed 1 --seconds 15 --trace 0
# Run it from the root of the repository.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
