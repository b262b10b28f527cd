#!/usr/bin/env bash
# smoke_federation.sh — multi-process federation smoke test.
#
# Starts three drams-node daemons on loopback (infrastructure + two edge
# tenants; tenant-2 runs with a durable -data-dir), waits until every
# process reports chain height >= TARGET_HEIGHT and each edge has served at
# least one end-to-end access decision, then exercises the two lifecycle
# paths this deployment must survive:
#
#   1. Live policy rollout: tenant-1's process pushes a restricting v2
#      policy on-chain mid-run; all processes that are up activate it at
#      the SAME chain height and tenant-1's decision stream flips from
#      Permit-under-v1 to Deny-under-v2 without restarting.
#   2. Member crash + durable restart: tenant-2 is killed BEFORE the v2
#      rollout lands and restarted from its -data-dir after it. The
#      restarted process must resume its persisted chain (height > 0, no
#      fresh genesis), catch up past its crash height (from the gossip its
#      peers' write queues kept for it, and batched bc.getrange sync for
#      what that leaves: about one transport call per SyncBatch blocks
#      fetched), activate v2 at the same height as the rest of the fleet,
#      and serve Deny-under-v2 decisions.
#   3. Operations surface: every daemon serves /metrics and /healthz on
#      its -metrics-addr; the infrastructure monitor times the edges'
#      exchanges (its monitor.match stage histogram counts matches, though
#      no client runs in its process); readiness gates the restarted tenant-2 (503
#      while it catches up, 200 once synced); the durable member's
#      drams_node_blocks_persisted_total keeps advancing; and the
#      restarted tenant-2 runs a mute-logs drill so the infrastructure
#      monitor's drams_monitor_alerts_total must advance with M3
#      message-suppressed alerts.
#
# Finally state-digest convergence is checked across all surviving
# processes, height by height. Exits non-zero on any failure or on the hard
# timeout.
#
# Usage: scripts/smoke_federation.sh [bin-dir]
set -u

TIMEOUT="${SMOKE_TIMEOUT:-120}"
TARGET_HEIGHT="${SMOKE_HEIGHT:-5}"
PUSH_HEIGHT="${SMOKE_PUSH_HEIGHT:-8}"
# Blocks the fleet must mine while tenant-2 is down (~45 blocks/s here).
# More than one SyncBatch (128), so a gap that is range-synced takes at
# least two windows. Blocks no longer overtake their parent on the way in
# (one import loop per node behind in-order links), so nothing after the gap
# costs a call per block and the outage need not dwarf anything.
REJOIN_GAP="${SMOKE_REJOIN_GAP:-150}"
PORT_BASE="${SMOKE_PORT_BASE:-19701}"
WORKDIR="$(mktemp -d)"
BIN="${1:-$WORKDIR}/drams-node"

cleanup() {
    [ -n "${PIDS:-}" ] && kill $PIDS 2>/dev/null
    wait 2>/dev/null
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Static gate first: a broken invariant fails fast, before any daemons
# start (skippable for tight inner loops with SKIP_CHECK=1).
if [ -z "${SKIP_CHECK:-}" ]; then
    . "$(dirname "$0")/check.sh"
    drams_check || exit 1
fi

if [ ! -x "$BIN" ]; then
    echo "building drams-node..."
    go build -o "$BIN" ./cmd/drams-node || exit 1
fi

# The v2 update: reads revoked (doctor-read flips Permit -> Deny).
"$BIN" -print-policy restricted:v2 > "$WORKDIR/v2.json" || exit 1

P1=$((PORT_BASE)) P2=$((PORT_BASE + 1)) P3=$((PORT_BASE + 2))
A1="127.0.0.1:$P1" A2="127.0.0.1:$P2" A3="127.0.0.1:$P3"
M1="127.0.0.1:$((PORT_BASE + 3))" M2="127.0.0.1:$((PORT_BASE + 4))" M3="127.0.0.1:$((PORT_BASE + 5))"
# -timeout-blocks is tightened fleet-wide so the mute-logs drill's M3
# alerts land within the run (consensus-critical: identical everywhere).
COMMON="-federation tenant-1,tenant-2 -seed 7 -difficulty 8 -timeout-blocks 20 -run-for ${TIMEOUT}s"
T2_ARGS="-listen $A3 -join $A1,$A2 -tenant tenant-2 -request-every 300ms -data-dir $WORKDIR/t2-data -metrics-addr $M3"

"$BIN" -listen "$A1" -join "$A2,$A3" -tenant infrastructure -metrics-addr "$M1" $COMMON \
    >"$WORKDIR/infra.log" 2>&1 &
PID_INFRA="$!"
PIDS="$PID_INFRA"
"$BIN" -listen "$A2" -join "$A1,$A3" -tenant tenant-1 -request-every 300ms -metrics-addr "$M2" \
    -policy-file "$WORKDIR/v2.json" -policy-at-height "$PUSH_HEIGHT" -policy-delta 4 \
    $COMMON >"$WORKDIR/t1.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN" $T2_ARGS $COMMON >"$WORKDIR/t2.log" 2>&1 &
PID_T2="$!"
PIDS="$PIDS $PID_T2"

# metric <addr> <series-grep-pattern>: prints the series' integer value.
metric() {
    curl -fsS --max-time 5 "http://$1/metrics" 2>/dev/null | grep "^$2" | head -1 | grep -o '[0-9]*$'
}

echo "3 daemons up (logs in $WORKDIR), waiting for height >= $TARGET_HEIGHT and v1 decisions..."

fail() {
    echo "SMOKE FAILED: $1" >&2
    for log in infra t1 t2 t2b; do
        [ -f "$WORKDIR/$log.log" ] || continue
        echo "--- $log.log (tail) ---" >&2
        tail -25 "$WORKDIR/$log.log" >&2
    done
    exit 1
}

deadline=$(( $(date +%s) + TIMEOUT ))

# Phase A: every process mines/validates to the target height and both
# edges serve a v1 Permit.
ok=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    heights_ok=true
    for log in infra t1 t2; do
        h=$(grep -o 'status height=[0-9]*' "$WORKDIR/$log.log" 2>/dev/null | tail -1 | grep -o '[0-9]*$')
        [ -n "$h" ] && [ "$h" -ge "$TARGET_HEIGHT" ] || heights_ok=false
    done
    v1_ok=true
    for log in t1 t2; do
        grep -q 'decision req=.*decision=Permit policy=v1' "$WORKDIR/$log.log" 2>/dev/null || v1_ok=false
    done
    if $heights_ok && $v1_ok; then
        ok=1
        break
    fi
    sleep 1
done
[ -n "$ok" ] || fail "phase A (heights + v1 decisions) not met within ${TIMEOUT}s"

# Ops surface: every daemon answers /healthz and serves its node counters
# on /metrics.
for m in "$M1" "$M2" "$M3"; do
    hz=$(curl -fsS --max-time 5 -o /dev/null -w '%{http_code}' "http://$m/healthz" 2>/dev/null)
    [ "$hz" = "200" ] || fail "healthz on $m answered '${hz:-nothing}', want 200"
    v=$(metric "$m" 'drams_node_blocks_persisted_total')
    [ -n "$v" ] || fail "metrics on $m missing drams_node_blocks_persisted_total"
done
alerts_before=$(metric "$M1" 'drams_monitor_alerts_total{type="message-suppressed"}')
[ -n "$alerts_before" ] || fail "infra metrics missing drams_monitor_alerts_total series"
echo "ops surface up on $M1 $M2 $M3 (message-suppressed alerts so far: $alerts_before)"

# The infrastructure member hosts no client, yet its monitor times the
# exchanges the edges drive, from the records' own timestamps: a match
# lands in its monitor.match stage histogram.
matches=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    matches=$(metric "$M1" 'drams_trace_stage_ms_count{stage="monitor.match"}')
    [ -n "$matches" ] && [ "$matches" -gt 0 ] && break
    sleep 1
done
[ -n "$matches" ] && [ "$matches" -gt 0 ] ||
    fail "infra drams_trace_stage_ms_count{stage=\"monitor.match\"} is '${matches:-absent}', want > 0"
echo "infra monitor timed $matches matched exchanges"

# Crash tenant-2 before the rollout: it must learn v2 from its restart.
kill "$PID_T2" 2>/dev/null
wait "$PID_T2" 2>/dev/null
PIDS=$(echo "$PIDS" | sed "s/ $PID_T2\$//")
crash_height=$(grep -o 'status height=[0-9]*' "$WORKDIR/t2.log" | tail -1 | grep -o '[0-9]*$')
echo "tenant-2 killed at height $crash_height; waiting for the v2 rollout to land without it..."

# Phase B: the surviving fleet activates v2 (t1 flips Permit -> Deny) and
# advances REJOIN_GAP blocks past the crash height, so the restart has real
# catching up to do.
RESTART_HEIGHT=$(( ${crash_height:-0} + REJOIN_GAP ))
ok=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    flip_ok=true
    for log in infra t1; do
        grep -q 'policy v2 activated at height' "$WORKDIR/$log.log" 2>/dev/null || flip_ok=false
    done
    grep -q 'decision req=.*decision=Deny policy=v2' "$WORKDIR/t1.log" 2>/dev/null || flip_ok=false
    h=$(grep -o 'status height=[0-9]*' "$WORKDIR/infra.log" 2>/dev/null | tail -1 | grep -o '[0-9]*$')
    if $flip_ok && [ -n "$h" ] && [ "$h" -ge "$RESTART_HEIGHT" ]; then
        ok=1
        break
    fi
    sleep 1
done
[ -n "$ok" ] || fail "phase B (v2 rollout without tenant-2) not met within ${TIMEOUT}s"

# Phase C: restart tenant-2 from its data dir. The restart also runs the
# mute-logs drill (engaged after it has rejoined): its pep.response
# records stop reaching the chain, so the monitor MUST raise M3
# message-suppressed alerts once the timeout window expires.
"$BIN" $T2_ARGS -byzantine mute-logs -byzantine-after 3s -catchup-delay 1500ms $COMMON >"$WORKDIR/t2b.log" 2>&1 &
PID_T2="$!"
PIDS="$PIDS $PID_T2"
echo "tenant-2 restarted from $WORKDIR/t2-data, waiting for durable rejoin..."

# Readiness gates the rejoin: the non-producing restart must answer 503
# (catch-up in progress) before its first successful sync round, then
# flip to 200. Poll tightly from the moment the process launches.
saw_503="" saw_200=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    rz=$(curl -fsS --max-time 2 -o /dev/null -w '%{http_code}' "http://$M3/readyz" 2>/dev/null)
    case "$rz" in
        503) [ -z "$saw_200" ] && saw_503=1 ;;
        200) saw_200=1; break ;;
    esac
    sleep 0.05
done
[ -n "$saw_503" ] || fail "restarted tenant-2 never reported 503 on /readyz during catch-up"
[ -n "$saw_200" ] || fail "restarted tenant-2 /readyz never reached 200 within ${TIMEOUT}s"
echo "readiness gated the rejoin: /readyz 503 during catch-up, then 200"

ok=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    if grep -q 'restored chain height=' "$WORKDIR/t2b.log" 2>/dev/null \
        && grep -q 'caught up to height' "$WORKDIR/t2b.log" 2>/dev/null \
        && grep -q 'policy v2 activated at height' "$WORKDIR/t2b.log" 2>/dev/null \
        && grep -q 'decision req=.*decision=Deny policy=v2' "$WORKDIR/t2b.log" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 1
done
[ -n "$ok" ] || fail "phase C (durable restart + rejoin) not met within ${TIMEOUT}s"

# Durability: the restarted process resumed its persisted chain, not a
# fresh genesis.
restored=$(grep -o 'restored chain height=[0-9]*' "$WORKDIR/t2b.log" | head -1 | grep -o '[0-9]*$')
[ -n "$restored" ] && [ "$restored" -ge 1 ] || fail "restart began from a fresh genesis (restored height ${restored:-none})"

# Catch-up economics. The outage was real: the restart had at least half of
# REJOIN_GAP to make up. The gap reaches it by two routes. Its peers kept
# gossiping at it while it was down, their per-peer write queues held those
# frames, and on reconnect they arrive in send order, so the import loop
# takes them without a pull; what the queues did not hold (they are bounded
# and carry transaction gossip too) is range-synced in ceil(missing/128)
# windows, fetched once however many gossiped blocks and catch-up attempts
# ask for it (one pull in flight per node). So `blocks` may be anything from
# 0 to the gap, and calls must stay near blocks/128. The line reports the
# node's lifetime totals; the allowance of 8 covers head probes, catch-up
# attempts made while the peers were still dialing, and a gossiped block
# lost to a reconnect.
caught=$(grep -o 'caught up to height [0-9]* from [^ ]*: [0-9]* blocks in [0-9]* sync calls' "$WORKDIR/t2b.log" | head -1)
caught_height=$(echo "$caught" | grep -o 'height [0-9]*' | grep -o '[0-9]*$')
blocks=$(echo "$caught" | grep -o '[0-9]* blocks' | grep -o '^[0-9]*')
calls=$(echo "$caught" | grep -o '[0-9]* sync calls$' | grep -o '^[0-9]*')
[ -n "$caught_height" ] && [ -n "$blocks" ] && [ -n "$calls" ] || fail "catch-up stats line missing"
[ $(( caught_height - restored )) -ge $(( REJOIN_GAP / 2 )) ] || fail "restart resumed at $restored and caught up at $caught_height after a $REJOIN_GAP-block outage — restart height gate broken"
[ "$calls" -le $(( (blocks + 127) / 128 + 8 )) ] || fail "catch-up used $calls calls for $blocks blocks — the gap was pulled more than once, or block by block"

# Height-gated atomicity across the crash: all three members (the restarted
# one included) must report the SAME activation height for v2.
act_heights=$(for log in infra t1 t2b; do
    grep -o 'policy v2 activated at height [0-9]*' "$WORKDIR/$log.log" | head -1 | grep -o '[0-9]*$'
done | sort -u | wc -l)
[ "$act_heights" -eq 1 ] || fail "v2 activation heights differ across processes"

# Each process instance ran exactly once per log file.
for log in infra t1 t2 t2b; do
    starts=$(grep -c '] listening on' "$WORKDIR/$log.log")
    [ "$starts" -eq 1 ] || fail "$log has $starts starts"
done

# Ops-surface progression: the durable member keeps persisting blocks
# (drams_node_blocks_persisted_total advances across a sampling gap) and
# the mute-logs drill forces drams_monitor_alerts_total to advance with
# M3 message-suppressed alerts on the infrastructure monitor.
persisted_a=$(metric "$M3" 'drams_node_blocks_persisted_total')
[ -n "$persisted_a" ] || fail "restarted tenant-2 metrics missing drams_node_blocks_persisted_total"
ok=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    persisted_b=$(metric "$M3" 'drams_node_blocks_persisted_total')
    if [ -n "$persisted_b" ] && [ "$persisted_b" -gt "$persisted_a" ]; then
        ok=1
        break
    fi
    sleep 1
done
[ -n "$ok" ] || fail "drams_node_blocks_persisted_total did not advance ($persisted_a -> ${persisted_b:-none})"

ok=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    alerts_now=$(metric "$M1" 'drams_monitor_alerts_total{type="message-suppressed"}')
    if [ -n "$alerts_now" ] && [ "$alerts_now" -gt "${alerts_before:-0}" ]; then
        ok=1
        break
    fi
    sleep 1
done
[ -n "$ok" ] || fail "drams_monitor_alerts_total{type=message-suppressed} did not advance (drill not detected)"
echo "ops progression: persisted $persisted_a -> $persisted_b, message-suppressed alerts ${alerts_before:-0} -> $alerts_now"

# Convergence: a status line pairs a height with the state digest at that
# height, so two processes that report the same height must report the same
# digest. The comparison is keyed by height, not by wall clock — blocks are
# produced continuously and each process ticks on its own phase, so "the
# same digest in the latest lines" would depend on when each was started.
# Fail on any height carrying two digests; require the restarted tenant-2 to
# share at least one height with another process, so the check is not
# vacuous. Two timers half a phase apart never sample a growing chain at one
# height, so the producer is stopped first: the chain stands still and the
# followers' next status lines name its last height. (Three-way equality at
# one instant is polled, not sampled, by TestMemberSliceRestartOverTCP.)
kill "$PID_INFRA" 2>/dev/null
wait "$PID_INFRA" 2>/dev/null
check_digests() {
    for log in infra t1 t2b; do
        grep -o 'status height=[0-9]* digest=[0-9a-f]*' "$WORKDIR/$log.log" |
            sed "s/status height=\([0-9]*\) digest=\([0-9a-f]*\)/\1 \2 $log/"
    done | awk '
        ($1 in digest) && digest[$1] != $2 { conflicts++ }
        { digest[$1] = $2; who[$1] = who[$1] " " $3 }
        END {
            for (h in who) if (who[h] ~ /t2b/ && who[h] ~ /infra|t1/) shared++
            print conflicts + 0, shared + 0
        }'
}
read -r conflicts shared <<<"$(check_digests)"
while [ "$conflicts" -eq 0 ] && [ "$shared" -eq 0 ] && [ "$(date +%s)" -lt "$deadline" ]; do
    sleep 1 # two more status ticks
    read -r conflicts shared <<<"$(check_digests)"
done

kill $PIDS 2>/dev/null
wait 2>/dev/null
PIDS=""

if [ "$conflicts" -ne 0 ]; then
    echo "SMOKE FAILED: $conflicts status lines report a digest that differs from another process's at the same height" >&2
    exit 1
fi
if [ "$shared" -eq 0 ]; then
    echo "SMOKE FAILED: the restarted tenant-2 reported no height in common with infra or tenant-1" >&2
    exit 1
fi

echo "SMOKE OK: 3-process federation served v1, hot-reloaded to v2 fleet-wide, tenant-2 survived kill+restart from its data dir (resumed height $restored, caught up $blocks blocks in $calls calls, $shared heights shared with one digest each), readiness gated the rejoin 503->200, and the ops surface tracked persistence and M3 alerts"
exit 0
