#!/usr/bin/env bash
# check.sh — the repo's unified static gate: Markdown citations in Go files,
# relative links in Markdown files, go vet, and drams-lint, the
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

# drams_md_citations fails when a .go file names a *.md path that exists
# neither from the repo root nor from the file's own directory, so a
# comment cannot cite a document that is gone. URLs (//host/...) are not
# paths in the tree and are skipped.
drams_md_citations() {
    local bad=0 file line path
    while IFS=: read -r file line path; do
        case $path in //*) continue ;; esac
        if [ ! -e "$path" ] && [ ! -e "$(dirname "$file")/$path" ]; then
            echo "$file:$line: names $path, which does not exist"
            bad=1
        fi
    done < <(grep -rnoE --include='*.go' '[A-Za-z0-9_./-]+\.md\b' .)
    return $bad
}

# drams_md_links fails when a relative link in a tracked *.md file, inline
# [text](target) or a [label]: target definition, does not resolve from
# the file's directory (from the repo root when it starts with /). Code
# spans and fenced code blocks are not scanned, URLs (scheme:...) and
# in-page #anchors are skipped, and a link's own #anchor is dropped before
# the check.
drams_md_links() {
    local bad=0 file line target path
    while IFS=: read -r file line target; do
        target=${target#<}
        target=${target%%[>[:space:]]*}
        target=${target%%#*}
        case $target in
            '' | *:*) continue ;;
            /*) path=.$target ;;
            *) path=$(dirname "$file")/$target ;;
        esac
        if [ ! -e "$path" ]; then
            echo "$file:$line: links $target, which does not resolve"
            bad=1
        fi
    done < <(git ls-files -z '*.md' | xargs -0 awk '
        FNR == 1 { fence = 0 }
        /^ *```/ { fence = !fence; next }
        fence { next }
        {
            gsub(/`[^`]*`/, "")
            if (match($0, /^ *\[[^]]+\]:[ \t]*/)) print FILENAME ":" FNR ":" substr($0, RLENGTH + 1)
            while (match($0, /\]\([^)]*/)) {
                print FILENAME ":" FNR ":" substr($0, RSTART + 2, RLENGTH - 2)
                $0 = substr($0, RSTART + RLENGTH)
            }
        }')
    return $bad
}

drams_check() {
    echo "check: Markdown paths named in .go files"
    drams_md_citations || return 1
    echo "check: relative links in *.md files"
    drams_md_links || return 1
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
