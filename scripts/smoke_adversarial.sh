#!/usr/bin/env bash
# smoke_adversarial.sh — adversarial multi-process federation drill.
#
# Starts three drams-node daemons on loopback (infrastructure + two edge
# tenants). tenant-2's process is a Byzantine member: it mines, but after
# -byzantine-after its chain node suppresses ALL outbound block/tx gossip
# (withholding attack), trapping its own tenant's probe-log records on the
# compromised node. The honest side keeps anchoring the PDP-side records of
# tenant-2's exchanges, so the M3 deadline must flag the half-anchored
# requests:
#
#   1. Healthy phase: both edges serve Permit-under-v1 decisions and the
#      fleet mines past a minimum height.
#   2. The withholding attack engages (greppable BYZANTINE line).
#   3. The infrastructure monitor raises ALERT type=message-suppressed for
#      a request tenant-2 made after the attack engaged, within the timeout,
#      naming tenant-2 (the origin tenant the PDP-side records carry).
#   4. False-positive guard: no alert of any type names a request of honest
#      tenant-1.
#
# Two producers fork now and then before the attack engages; the guard in 4
# then also checks that a reorganising node returns an abandoned block's
# transactions to its pool (lost, they surface as alerts on honest traffic).
#
# Exits non-zero on any failure or on the hard timeout.
#
# Usage: scripts/smoke_adversarial.sh [bin-dir]
set -u

TIMEOUT="${SMOKE_TIMEOUT:-120}"
TARGET_HEIGHT="${SMOKE_HEIGHT:-3}"
ENGAGE_AFTER="${SMOKE_ENGAGE_AFTER:-15}"
PORT_BASE="${SMOKE_PORT_BASE:-19801}"
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

P1=$((PORT_BASE)) P2=$((PORT_BASE + 1)) P3=$((PORT_BASE + 2))
A1="127.0.0.1:$P1" A2="127.0.0.1:$P2" A3="127.0.0.1:$P3"
# -timeout-blocks 8: a short M3 window so detection lands well inside the
# smoke budget (consensus-critical, so set on every process).
COMMON="-federation tenant-1,tenant-2 -seed 7 -difficulty 8 -timeout-blocks 8 -run-for ${TIMEOUT}s"

"$BIN" -listen "$A1" -join "$A2,$A3" -tenant infrastructure $COMMON \
    >"$WORKDIR/infra.log" 2>&1 &
PIDS="$!"
"$BIN" -listen "$A2" -join "$A1,$A3" -tenant tenant-1 -request-every 300ms \
    $COMMON >"$WORKDIR/t1.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN" -listen "$A3" -join "$A1,$A2" -tenant tenant-2 -request-every 300ms \
    -mine -byzantine withhold -byzantine-after "${ENGAGE_AFTER}s" \
    $COMMON >"$WORKDIR/t2.log" 2>&1 &
PIDS="$PIDS $!"

echo "3 daemons up (logs in $WORKDIR); tenant-2 turns Byzantine after ${ENGAGE_AFTER}s..."

fail() {
    echo "ADVERSARIAL SMOKE FAILED: $1" >&2
    for log in infra t1 t2; do
        [ -f "$WORKDIR/$log.log" ] || continue
        echo "--- $log.log (tail) ---" >&2
        tail -25 "$WORKDIR/$log.log" >&2
    done
    exit 1
}

deadline=$(( $(date +%s) + TIMEOUT ))

# Phase A: the federation is healthy before the attack — every process
# reaches the target height and both edges serve a v1 Permit.
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
[ -n "$ok" ] || fail "phase A (healthy federation) not met within ${TIMEOUT}s"
echo "federation healthy; waiting for the withholding attack to engage..."

# Phase B: the attack engages.
ok=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    if grep -q 'BYZANTINE mode=withhold engaged' "$WORKDIR/t2.log" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 1
done
[ -n "$ok" ] || fail "phase B (byzantine engagement) not met within ${TIMEOUT}s"
echo "withholding engaged; waiting for M3 detection on the honest side..."

# Phase C: the monitor flags a trapped tenant-2 exchange. The victim's
# pep.* records are stuck on the Byzantine node, the PDP-side records
# anchor honestly, and the Δ-block deadline sweep raises the alert. The
# PDP-side records carry the tenant whose PEP called as their origin, so
# the alert names the victim: it must read tenant=tenant-2.
alert_ids() { # <grep pattern for the ALERT prefix> [tenant]
    grep -o "$1 req=[0-9a-f]* tenant=${2:-[^ ]*}" "$WORKDIR/infra.log" 2>/dev/null |
        sed 's/.* req=\([0-9a-f]*\) .*/\1/' | sort -u
}
trapped_ids() {
    sed -n '/BYZANTINE mode=withhold engaged/,$p' "$WORKDIR/t2.log" |
        grep -o 'decision req=[0-9a-f]*' | grep -o '[0-9a-f]*$' | sort -u
}
detected=0
while [ "$(date +%s)" -lt "$deadline" ]; do
    detected=$(comm -12 <(alert_ids 'ALERT type=message-suppressed' tenant-2) <(trapped_ids) | wc -l)
    [ "$detected" -gt 0 ] && break
    sleep 1
done
[ "$detected" -gt 0 ] || fail "phase C (withholding not detected) within ${TIMEOUT}s"

# False-positive guard: no alert of any type may name a request the honest
# tenant-1 made.
honest_hit=$(alert_ids 'ALERT type=[^ ]*' | grep -c -F -f - "$WORKDIR/t1.log")
[ "$honest_hit" -eq 0 ] || fail "false positive: an alert names a request of honest tenant-1"

echo "ADVERSARIAL SMOKE OK: withholding attack detected ($detected message-suppressed alert(s) naming tenant-2 for requests it made after the attack engaged, none for honest tenant-1)"
exit 0
