#!/usr/bin/env bash
# bench.sh — run the full benchmark suite and emit a machine-readable
# snapshot BENCH_<UTC-date>.json in the repo root. Committing these
# snapshots over time gives the repo a benchmark trajectory: every
# performance PR records the before/after numbers it claims.
#
# Usage:
#   scripts/bench.sh                     # full run (go test -bench . -benchmem)
#   BENCHTIME=1x scripts/bench.sh        # CI smoke: one iteration per benchmark
#   SUFFIX=tag scripts/bench.sh          # write BENCH_<date>_tag.json instead
#   scripts/bench.sh serve               # serving-path benchmarks only
#       (cached vs cold HTTP round trips) -> BENCH_<date>_serve.json
#   scripts/bench.sh fleet               # fleet-mode benchmarks only
#       (local hit vs forwarded hit vs failover) -> BENCH_<date>_fleet.json
#   scripts/bench.sh mor                 # transient figure benchmarks only
#       (Fig9-12, the reduced-order fast path) -> BENCH_<date>_mor.json
#   scripts/bench.sh pdn                 # power-grid mesh benchmarks only
#       (build/factor/solve at 1e3/1e4/1e5 nodes + ordering comparison)
#       -> BENCH_<date>_pdn.json
#   scripts/bench.sh power               # power-subsystem benchmarks only
#       (Pareto-front trace with warm-start continuation, RIP power plan)
#       -> BENCH_<date>_power.json
#   scripts/bench.sh compare [new] [base]
#       Diff two snapshots and exit nonzero on a >15% ns/op regression or
#       ANY allocs/op increase for benchmarks present in both. new defaults
#       to the most recently modified BENCH_*.json on disk, base to the
#       newest snapshot committed to git. Most regressions exit 1 and CI
#       treats them as a soft gate (timing on shared runners is noisy; alloc
#       counts are not) — but a ns/op regression on the transient figure
#       benchmarks Fig9-12 or the PDN mesh solves (BenchmarkPDNSolve*) exits
#       3, which CI treats as a hard failure: Fig9-12 are the reduced-order
#       fast path's contract and the mesh solves are the sparse engine's —
#       a >15% slide means the reduction or the iterative path stopped
#       engaging.
#
# Output schema: {"date": ..., "go": ..., "benchmarks": [{"op": name,
# "ns_per_op": float, "b_per_op": int, "allocs_per_op": int}, ...]}
# Entries keep the -N GOMAXPROCS suffix stripped so names stay stable
# across machines.
set -euo pipefail
cd "$(dirname "$0")/.."

compare() {
  local base new
  # Default baseline: the snapshot most recently added to git history.
  base="${2:-$(git log --format= --name-only --diff-filter=A -- 'BENCH_*.json' | awk 'NF' | head -1)}"
  new="${1:-$(ls -t BENCH_*.json 2>/dev/null | grep -vxF "$base" | head -1 || true)}"
  if [[ -z "$base" || -z "$new" || ! -f "$base" || ! -f "$new" ]]; then
    echo "compare: need two snapshots (new='$new' base='$base')" >&2
    return 2
  fi
  echo "comparing $new against baseline $base"
  awk -v tol=0.15 '
  function getnum(key,    m) {
      if (match($0, "\"" key "\": [0-9.eE+-]+")) {
          m = substr($0, RSTART, RLENGTH)
          sub(/^.*: /, "", m)
          return m
      }
      return ""
  }
  /"op"/ {
      if (!match($0, /"op": "[^"]+"/)) next
      name = substr($0, RSTART + 7, RLENGTH - 8)
      ns = getnum("ns_per_op"); al = getnum("allocs_per_op")
      if (FNR == NR) { bns[name] = ns; bal[name] = al; next }
      if (!(name in bns)) { added++; next }
      compared++
      if (bns[name] + 0 > 0 && ns + 0 > bns[name] * (1 + tol)) {
          printf "REGRESSION %-28s ns/op %12.0f -> %12.0f (+%.1f%%)\n",
                 name, bns[name], ns, (ns / bns[name] - 1) * 100
          bad = 1
          # Fig9-12 (reduced-order fast path) and the PDN mesh solves
          # (sparse-engine iterative path) are perf contracts: hard failure.
          if (name ~ /^BenchmarkFig(9|1[0-2])$/ || name ~ /^BenchmarkPDNSolve/) hard = 1
      }
      if (al != "" && bal[name] != "" && al + 0 > bal[name] + 0) {
          printf "REGRESSION %-28s allocs/op %6d -> %6d\n", name, bal[name], al
          bad = 1
      }
  }
  END {
      printf "compared %d benchmarks (%d new-only)\n", compared, added
      if (compared == 0) { print "compare: no overlapping benchmarks" ; exit 2 }
      if (hard) { print "HARD FAILURE: perf-contract benchmark (Fig9-12 / PDNSolve) regressed" ; exit 3 }
      exit bad
  }' "$base" "$new"
}

if [[ "${1:-}" == "compare" ]]; then
  shift
  compare "$@"
  exit $?
fi

benchtime="${BENCHTIME:-}"
pattern=.
pkgs=(./...)
if [[ "${1:-}" == "serve" ]]; then
  # Serving-path snapshot: the HTTP round trip with the result cache
  # answering vs the full cold solve behind admission control.
  pattern='BenchmarkServe'
  pkgs=(./internal/serve/)
  : "${SUFFIX:=serve}"
elif [[ "${1:-}" == "fleet" ]]; then
  # Fleet-mode snapshot: local shard hit vs one forwarding hop to the key's
  # owner vs failover (dead owner -> local compute) -> BENCH_<date>_fleet.json
  pattern='BenchmarkFleet'
  pkgs=(./internal/serve/)
  : "${SUFFIX:=fleet}"
elif [[ "${1:-}" == "mor" ]]; then
  # Transient figure snapshot: the ring-oscillator benchmarks served by the
  # Krylov reduced-order fast path -> BENCH_<date>_mor.json
  pattern='^BenchmarkFig(9|1[0-2])$'
  pkgs=(.)
  : "${SUFFIX:=mor}"
elif [[ "${1:-}" == "pdn" ]]; then
  # Power-grid mesh snapshot: mesh build and engine factor/solve at
  # 1e3/1e4/1e5 nodes plus the AMD-vs-natural direct ordering comparison
  # -> BENCH_<date>_pdn.json.
  # Custom metrics (fill-ratio, iters, nnz(L+U)) land in each entry's
  # "extra" object.
  pattern='^BenchmarkPDN'
  pkgs=(./internal/pdn/)
  : "${SUFFIX:=pdn}"
elif [[ "${1:-}" == "power" ]]; then
  # Power-subsystem snapshot: the delay/power Pareto-front trace (warm-start
  # continuation over the λ grid) and the RIP mixed-scheme plan built on it
  # -> BENCH_<date>_power.json. Soft compare tier: timing regressions exit 1,
  # not 3.
  pattern='^Benchmark(ParetoFront|PlanPower)$'
  pkgs=(./internal/power/)
  : "${SUFFIX:=power}"
fi
args=(test -run '^$' -bench "$pattern" -benchmem -timeout 60m "${pkgs[@]}")
if [[ -n "$benchtime" ]]; then
  args+=(-benchtime "$benchtime")
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go "${args[@]}" | tee "$raw"

date_utc="$(date -u +%Y-%m-%d)"
out="BENCH_${date_utc}${SUFFIX:+_${SUFFIX}}.json"
go_version="$(go version | awk '{print $3}')"

awk -v date="$date_utc" -v gover="$go_version" '
BEGIN { n = 0 }
# Benchmark result lines look like:
#   BenchmarkFig9-8   3   417071363 ns/op   5175389 B/op   158938 allocs/op
$1 ~ /^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip GOMAXPROCS suffix
    ns = ""; bop = ""; aop = ""; extra = ""
    for (i = 3; i <= NF; i++) {
        # Result lines are "<iters> <value unit>..." pairs; anything beyond
        # the three standard units is a testing.B.ReportMetric custom metric
        # (fill-ratio, iters, ...) and is carried in the "extra" object of
        # each entry so snapshots keep the factor-shape story, not just times.
        if ($i == "ns/op")          ns  = $(i-1)
        else if ($i == "B/op")      bop = $(i-1)
        else if ($i == "allocs/op") aop = $(i-1)
        else if ($(i-1) ~ /^[0-9.eE+-]+$/ && $i !~ /^[0-9.eE+-]+$/) {
            if (extra != "") extra = extra ", "
            extra = extra "\"" $i "\": " $(i-1)
        }
    }
    if (ns == "") next
    if (bop == "") bop = "null"
    if (aop == "") aop = "null"
    ex = ""
    if (extra != "") ex = ", \"extra\": {" extra "}"
    ops[n] = sprintf("    {\"op\": \"%s\", \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s%s}",
                     name, ns, bop, aop, ex)
    n++
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, gover
    for (i = 0; i < n; i++) printf "%s%s\n", ops[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' "$raw" > "$out"

count="$(grep -c '"op"' "$out" || true)"
echo "wrote $out ($count benchmarks)"
