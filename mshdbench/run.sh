#!/usr/bin/env bash
# Builds cmd/mshd and the load driver from the tree under test, then runs
# one benchmark workload against real mshd processes on loopback.
#
#   bash mshdbench/run.sh --workload search-heavy --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, starts and writes
# lives under .bench_build/ in that root; nothing is written elsewhere.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mshd || ! -f mshdbench/go.mod ]]; then
	echo "mshdbench: run from the repository root (needs go.mod, cmd/mshd and mshdbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
# Keep the toolchain's caches, temporary files and settings inside the
# checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Builds run before any timing starts; the build cache makes repeats cheap.
go build -o "$out/bin/mshd" ./cmd/mshd
(cd mshdbench && go build -o "$out/bin/mshdbench" .)

exec "$out/bin/mshdbench" -mshd "$out/bin/mshd" -out "$out/mshdbench" "$@"
