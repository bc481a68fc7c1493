#!/usr/bin/env bash
# layout_parity.sh — check that a change leaves the benchmark binaries' code
# layout where a base revision had it.
#
# Usage:
#   scripts/layout_parity.sh <base-rev>
#
# Builds perfbench and rlcd twice with perfbench/run.sh's build environment:
# once from <base-rev> (extracted with git archive into a temporary
# directory) and once from the working tree. It then prints every `main.*`
# and `rlcint/...` text symbol whose address mod 64 differs between the two
# builds, one line per symbol:
#
#   <binary> <symbol> <base addr mod 64> -> <working-tree addr mod 64>
#
# and exits 1 if there is any, 0 otherwise. A symbol missing from one build
# (added, deleted or renamed) is not listed.
#
# Why mod 64: Go aligns functions to 32 bytes, so a package whose code grows
# by an odd multiple of 32 bytes moves every function linked after it by
# 32 mod 64. perfbench divides its timed metrics by the speed of its
# calibration kernel `main.kernel`, whose speed depends on that alignment;
# perfbench links internal/sparse and internal/pdn before main, and rlcd
# links them before internal/power and internal/serve.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: scripts/layout_parity.sh <base-rev>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")

out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# build <source dir> <binary dir>
build() {
	mkdir -p "$2"
	(cd "$1" && go build -o "$2/rlcd" ./cmd/rlcd)
	(cd "$1/perfbench" && go build -o "$2/perfbench" .)
}
build "$tmp/base" "$tmp/bin-base"
build "$root" "$tmp/bin-head"

# syms <binary>: "<symbol><TAB><address mod 64>" for the repository's text
# symbols. Names of generic instantiations contain spaces, so the name is
# everything after the type letter.
syms() {
	go tool nm "$1" | awk '
	function low(a,   i, v) {
		v = 0
		for (i = length(a) - 1; i <= length(a); i++)
			v = v * 16 + index("0123456789abcdef", tolower(substr(a, i, 1))) - 1
		return v % 64
	}
	$2 == "T" || $2 == "t" {
		name = $0
		sub(/^ *[0-9a-f]+ [Tt] /, "", name)
		if (name ~ /^main\./ || name ~ /^rlcint\//) printf "%s\t%d\n", name, low($1)
	}' | LC_ALL=C sort -u
}

status=0
for bin in perfbench rlcd; do
	syms "$tmp/bin-base/$bin" >"$tmp/$bin.base"
	syms "$tmp/bin-head/$bin" >"$tmp/$bin.head"
	LC_ALL=C join -t "$(printf '\t')" "$tmp/$bin.base" "$tmp/$bin.head" >"$tmp/$bin.joined"
	moved=$(awk -F '\t' -v b="$bin" '$2 != $3 { print b, $1, $2, "->", $3 }' "$tmp/$bin.joined")
	if [[ -n "$moved" ]]; then
		echo "$moved"
		status=1
	fi
	echo "$bin: $(printf '%s' "$moved" | grep -c . || true) of $(wc -l <"$tmp/$bin.joined") shared symbols changed address mod 64" >&2
done
exit $status
