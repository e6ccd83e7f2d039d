#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-ai --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary,
# the cache directories the workloads open and the span files.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
