#!/bin/sh
# loc.sh [DIR]
#
# Prints the production Go lines of the module rooted at DIR (default: the
# current directory) per package directory, then the total. A production
# line is a line of a .go file outside swbench/ (the benchmark harness,
# its own module) that is not a _test.go file, skipping blank lines and
# lines whose first non-space characters are //. Simplicity changes report
# their delta in this count.
set -eu

cd "${1:-.}"
find . -path ./swbench -prune -o -name '*.go' ! -name '*_test.go' -print |
    awk '
        {
            dir = $0
            sub(/\/[^\/]*$/, "", dir)
            sub(/^\.\/?/, "", dir)
            if (dir == "") dir = "."
            while ((getline line < $0) > 0) {
                if (line ~ /^[ \t]*$/ || line ~ /^[ \t]*\/\//) continue
                lines[dir]++
                total++
            }
            close($0)
        }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
