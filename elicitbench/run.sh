#!/usr/bin/env bash
# Builds the elicitation benchmark from source and runs it with the given
# flags (--workload, --seed, --seconds, --trace). Run it from the root of
# the repository: `bash elicitbench/run.sh --workload elicit-mixed-2k`.
#
# Every build artefact (the Go build cache, temporary files and the binary)
# stays under .bench_build in the repository root, and the toolchain is
# told never to reach a network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/elicitbench" && go build -o "$out/elicitbench" .) 1>&2
exec "$out/elicitbench" "$@"
