#!/bin/sh
# fleet_smoke.sh — multi-process smoke test of rlcd fleet mode.
#
# Boots three real rlcd daemons that know each other as peers and drives the
# fault-tolerant forwarding path end to end, through the binaries:
#
#   1. all three come ready and cross-shard requests are actually forwarded
#      (X-Cache: forwarded with an X-Fleet-Peer attribution);
#   2. one member is SIGKILLed mid-burst: every client response across the
#      burst stays 2xx — the survivors detect the dead peer, fail over to
#      local compute, and keep answering (zero client-visible hard failures);
#   3. the survivors' probes eject the dead peer (statusz shows it down),
#      and after a restart they re-admit it (statusz shows it up again);
#   4. a SIGHUP with a -peers-file rewrites ring membership without a
#      restart.
set -eu

cd "$(dirname "$0")/.."
work=$(mktemp -d)
pids=""
trap 'rm -rf "$work"; for p in $pids; do kill -9 "$p" 2>/dev/null || true; done' EXIT

go build -o "$work/rlcd" ./cmd/rlcd

p1=18941 p2=18942 p3=18943
a1="127.0.0.1:$p1" a2="127.0.0.1:$p2" a3="127.0.0.1:$p3"

# start_member <port> <self> <peers-csv-or-@file> <log>
start_member() {
	if [ "${3#@}" != "$3" ]; then
		set -- "$1" "$2" "-peers-file ${3#@}" "$4"
	else
		set -- "$1" "$2" "-peers $3" "$4"
	fi
	# shellcheck disable=SC2086
	"$work/rlcd" -addr "127.0.0.1:$1" -self "$2" $3 \
		-probe-interval 100ms \
		-forward-timeout 500ms -hedge-after 250ms \
		-breaker-threshold 10 -breaker-cooldown 2s \
		2>"$work/$4" &
	last_pid=$!
	pids="$pids $last_pid"
}

wait_ready() {
	n=0
	until curl -fsS "http://$1/readyz" >/dev/null 2>&1; do
		n=$((n + 1))
		[ $n -le 100 ] || { echo "fleet_smoke: FAIL: $1 never became ready" >&2; cat "$work/$2" >&2; exit 1; }
		sleep 0.1
	done
}

echo "fleet_smoke: fleet flag validation fails fast"
rc=0
"$work/rlcd" -peers "$a2" 2>"$work/usage.log" || rc=$?
[ "$rc" = 2 ] || { echo "fleet_smoke: FAIL: -peers without -self exited $rc, want 2" >&2; exit 1; }

echo "fleet_smoke: phase 1 — three members come ready"
start_member "$p1" "$a1" "$a2,$a3" m1.log; pid1=$last_pid
start_member "$p2" "$a2" "$a1,$a3" m2.log; pid2=$last_pid
start_member "$p3" "$a3" "$a1,$a2" m3.log
wait_ready "$a1" m1.log
wait_ready "$a2" m2.log
wait_ready "$a3" m3.log
grep -q 'fleet: self=' "$work/m1.log" || { echo "fleet_smoke: FAIL: no fleet boot log" >&2; cat "$work/m1.log" >&2; exit 1; }

# Readiness is per-instance; peer admission takes two successful
# probes on top of that. Wait until member 1 routes to both peers before
# expecting forwards.
n=0
until [ "$(curl -fsS "http://$a1/statusz" | grep -c '"up": true')" = 2 ]; do
	n=$((n + 1))
	[ $n -le 50 ] || { echo "fleet_smoke: FAIL: peers never admitted" >&2; curl -fsS "http://$a1/statusz" >&2; exit 1; }
	sleep 0.1
done

echo "fleet_smoke: cross-shard requests are forwarded with peer attribution"
# Distinct keys spread across shards: with 3 members, most keys sent to one
# member are owned elsewhere, so forwards must show up quickly.
forwarded=0
i=0
while [ $i -lt 12 ]; do
	l="1.$((10 + i))e-6"
	curl -fsS -D "$work/fh" -o "$work/fb" -d "{\"tech\":\"100nm\",\"l\":$l,\"f\":0.5}" "http://$a1/v1/optimize" \
		|| { echo "fleet_smoke: FAIL: optimize l=$l failed" >&2; cat "$work/fb" >&2; exit 1; }
	if grep -qi '^x-cache: forwarded' "$work/fh"; then
		forwarded=$((forwarded + 1))
		grep -qi "^x-fleet-peer: " "$work/fh" || { echo "fleet_smoke: FAIL: forwarded answer without X-Fleet-Peer" >&2; cat "$work/fh" >&2; exit 1; }
	fi
	i=$((i + 1))
done
[ "$forwarded" -ge 1 ] || { echo "fleet_smoke: FAIL: 12 cross-shard requests, zero forwarded" >&2; exit 1; }
echo "fleet_smoke:   $forwarded/12 requests forwarded to their owner"
curl -fsS "http://$a1/metrics" | grep -q '"forwarded": *[1-9]' \
	|| { echo "fleet_smoke: FAIL: /metrics shows no forwards" >&2; exit 1; }

echo "fleet_smoke: phase 2 — SIGKILL one member mid-burst, zero hard failures"
kill -9 "$pid2"
wait "$pid2" 2>/dev/null || true
fails=0
i=0
while [ $i -lt 30 ]; do
	# Mixed burst against both survivors: repeat keys (hits), fresh keys
	# (misses, some owned by the dead member), and a small sweep.
	case $((i % 3)) in
	0) url="http://$a1/v1/optimize"; body="{\"tech\":\"100nm\",\"l\":2.$((i))e-6,\"f\":0.5}" ;;
	1) url="http://$a3/v1/optimize"; body="{\"tech\":\"100nm\",\"l\":1.$((10 + i))e-6,\"f\":0.5}" ;;
	2) url="http://$a1/v1/sweep"; body='{"tech":"100nm","ls":[1e-7,2e-7,3e-7],"f":0.5}' ;;
	esac
	code=$(curl -s -o "$work/kb" -w '%{http_code}' -d "$body" "$url" || echo 000)
	case "$code" in
	2??) ;;
	*)
		fails=$((fails + 1))
		echo "fleet_smoke:   hard failure: $url -> $code" >&2
		cat "$work/kb" >&2 || true
		;;
	esac
	i=$((i + 1))
done
[ "$fails" = 0 ] || { echo "fleet_smoke: FAIL: $fails/30 requests failed hard after SIGKILL" >&2; cat "$work/m1.log" >&2; exit 1; }

echo "fleet_smoke: phase 3 — survivors eject the dead peer"
n=0
until curl -fsS "http://$a1/statusz" | grep -A3 "\"addr\": \"$a2\"" | grep -q '"up": false'; do
	n=$((n + 1))
	[ $n -le 50 ] || { echo "fleet_smoke: FAIL: $a2 never marked down in statusz" >&2; curl -fsS "http://$a1/statusz" >&2; exit 1; }
	sleep 0.1
done
grep -q "fleet: peer $a2 ejected" "$work/m1.log" || { echo "fleet_smoke: FAIL: no ejection log line" >&2; cat "$work/m1.log" >&2; exit 1; }

echo "fleet_smoke: phase 3 — restarted peer is re-admitted"
start_member "$p2" "$a2" "$a1,$a3" m2b.log
wait_ready "$a2" m2b.log
n=0
until curl -fsS "http://$a1/statusz" | grep -A3 "\"addr\": \"$a2\"" | grep -q '"up": true'; do
	n=$((n + 1))
	[ $n -le 100 ] || { echo "fleet_smoke: FAIL: $a2 never re-admitted" >&2; curl -fsS "http://$a1/statusz" >&2; exit 1; }
	sleep 0.1
done
curl -fsS "http://$a1/metrics" | grep -q '"readmitted": *[1-9]' \
	|| { echo "fleet_smoke: FAIL: no readmitted count in /metrics" >&2; exit 1; }

echo "fleet_smoke: phase 4 — SIGHUP reloads the peers file"
kill -TERM "$pid1"
wait "$pid1" 2>/dev/null || true
printf '# fleet members\n%s\n%s\n' "$a2" "$a3" >"$work/peers.txt"
start_member "$p1" "$a1" "@$work/peers.txt" m1b.log; pid1=$last_pid
wait_ready "$a1" m1b.log
printf '%s\n' "$a3" >"$work/peers.txt"
kill -HUP "$pid1"
n=0
until curl -fsS "http://$a1/statusz" | grep -q '"members": 2'; do
	n=$((n + 1))
	[ $n -le 50 ] || { echo "fleet_smoke: FAIL: SIGHUP did not shrink membership to 2" >&2; curl -fsS "http://$a1/statusz" >&2; exit 1; }
	sleep 0.1
done
grep -q 'fleet: peers reloaded' "$work/m1b.log" || { echo "fleet_smoke: FAIL: no reload log line" >&2; cat "$work/m1b.log" >&2; exit 1; }

echo "fleet_smoke: PASS"
