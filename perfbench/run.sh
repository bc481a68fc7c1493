#!/usr/bin/env bash
# Builds the benchmark program and the rlcd daemon from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries, traces and per-run results go to .bench_build/ in
# the checkout; nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rlcd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/rlcd and perfbench/ are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/rlcd" ./cmd/rlcd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -rlcd "$out/rlcd" -out "$out" "$@"
