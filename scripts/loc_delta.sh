#!/bin/sh
# loc_delta.sh [BASE]
#
# Prints the production Go lines (as counted by loc.sh) per package at the
# git revision BASE (default: HEAD) and in the working tree, with the
# delta, then the totals. BASE is unpacked with `git archive` into a
# temporary directory that is removed on exit. Run from the repository
# root; simplicity changes report this table.
set -eu

base="${1:-HEAD}"
here=$(dirname "$0")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git archive "$base" | tar -x -C "$tmp"
"$here/loc.sh" "$tmp" > "$tmp/.before"
"$here/loc.sh" > "$tmp/.after"

awk -v base="$base" '
    FNR == NR { before[$2] = $1; seen[$2] = 1; next }
    { after[$2] = $1; seen[$2] = 1 }
    END {
        printf "%7s %7s %7s  package (before = %s)\n", "before", "after", "delta", base
        for (p in seen) if (p != "total") {
            printf "%7d %7d %+7d  %s\n", before[p], after[p], after[p] - before[p], p | "sort -k4"
        }
        close("sort -k4")
        printf "%7d %7d %+7d  total\n", before["total"], after["total"], after["total"] - before["total"]
    }' "$tmp/.before" "$tmp/.after"
