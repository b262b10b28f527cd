#!/usr/bin/env bash
# check.sh — the repo's unified static gate: go vet plus drams-lint, the
# stdlib-only analyzer suite that enforces the architectural invariants
# (netsim isolation, the dep-free obs stratum, ctx propagation, no
# blocking call under a lock, pinned chaos seeds, errors.Is on wire
# sentinels, snapshot-only Stats, and deadcode: every non-test declaration
# reachable from a binary or the root package's API; see
# docs/ARCHITECTURE.md §13).
#
# Usage:
#   scripts/check.sh                   # run the gate from the repo root
#   . scripts/check.sh && drams_check  # source the function into a script
#
# LINT_JSON_OUT=path.json additionally writes machine-readable findings
# (CI uploads them as an artifact when the gate fails).
set -u

drams_check() {
    echo "check: go vet ./..."
    go vet ./... || return 1
    echo "check: drams-lint ./..."
    if [ -n "${LINT_JSON_OUT:-}" ]; then
        go run ./cmd/drams-lint -out "$LINT_JSON_OUT" ./... || return 1
    else
        go run ./cmd/drams-lint ./... || return 1
    fi
}

# Executed directly (not sourced): run the gate now.
if [ "${BASH_SOURCE[0]:-$0}" = "$0" ]; then
    drams_check || exit 1
fi
