#!/bin/sh
# testonly_api.sh [ALLOWLIST]
#
# Lists exported API that only tests reach. It prints "path:line name" for
# every exported top-level function or method declared in a non-test .go
# file outside swbench/ whose name appears on no other non-test,
# non-comment line of the module; swbench/ (the benchmark harness, its own
# module) counts as a caller. A name counts when it appears as a whole
# identifier anywhere on a line, so the check is conservative: a method
# sharing its name with any other used identifier is never listed.
#
# ALLOWLIST (default: scripts/testonly_api.allow) holds the names kept on
# purpose, one per line as "name  # reason". The script exits 1 when a
# listed name is not on the allowlist, and notes allowlist entries that no
# longer match anything.
#
# It then notes, without failing, the exported functions and methods that
# only swbench/ and tests reach: those linked into the swbench binary and
# into no production binary (cmd/*, examples/*). The linker keeps only
# what a binary can call, so methods that share a name are told apart.
# Inlining is off for the module's packages, so a function every caller
# inlines still shows. Run from the repository root.
set -eu

allow="${1:-$(dirname "$0")/testonly_api.allow}"
status=0

find . -name '*.go' ! -name '*_test.go' -print | sort |
    awk -v allow="$allow" '
        BEGIN {
            while ((getline line < allow) > 0) {
                sub(/#.*/, "", line)
                gsub(/[ \t]/, "", line)
                if (line != "") allowed[line] = 1
            }
            close(allow)
        }
        {
            file = $0
            n = 0
            while ((getline line < file) > 0) {
                n++
                if (line ~ /^[ \t]*\/\//) continue
                # Count each identifier once per line.
                delete seen
                rest = line
                while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    id = substr(rest, RSTART, RLENGTH)
                    rest = substr(rest, RSTART + RLENGTH)
                    if (!(id in seen)) { seen[id] = 1; uses[id]++ }
                }
                if (file ~ /^\.\/swbench\//) continue
                if (match(line, /^func[ \t]+(\([^)]*\)[ \t]*)?[A-Z][A-Za-z0-9_]*[ \t]*[\[(]/)) {
                    decl = substr(line, 1, RLENGTH)
                    sub(/^func[ \t]+(\([^)]*\)[ \t]*)?/, "", decl)
                    sub(/[ \t]*[\[(]$/, "", decl)
                    ndecl++
                    name[ndecl] = decl
                    where[ndecl] = substr(file, 3) ":" n
                }
            }
            close(file)
        }
        END {
            bad = 0
            for (i = 1; i <= ndecl; i++) {
                if (uses[name[i]] > 1) continue
                print where[i] " " name[i]
                listed[name[i]] = 1
                if (!(name[i] in allowed)) unlisted[++bad] = where[i] " " name[i]
            }
            for (a in allowed) if (!(a in listed))
                printf "testonly-api: note: allowlisted %s is no longer test-only\n", a
            if (bad > 0) {
                printf "testonly-api: %d exported name(s) reached only by tests and not in %s:\n", bad, allow
                for (i = 1; i <= bad; i++) print "  " unlisted[i]
                exit 1
            }
        }' || status=$?

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/prod"
noinline='-gcflags=sidewinder/...=-l'
# syms prints the module's function symbols linked into the binaries, a
# pointer receiver and a method value's -fm suffix stripped.
syms() {
    for f in "$@"; do go tool nm "$f"; done |
        awk '$2 == "T" || $2 == "t" { print $3 }' |
        sed -E -n 's/\(\*([A-Za-z0-9_]+)\)/\1/; s/-fm$//; s/^sidewinder\/(internal\/)/\1/p; /^sidewinder\./p' | sort -u
}
if go build "$noinline" -o "$tmp/prod/" ./cmd/... ./examples/... &&
    (cd swbench && go build "$noinline" -o "$tmp/swbench" .); then
    syms "$tmp"/prod/* > "$tmp/prod.txt"
    syms "$tmp/swbench" | comm -23 - "$tmp/prod.txt" |
        awk -F. '$NF ~ /^[A-Z]/ { print "testonly-api: note: " $0 " is reached only from swbench/ and tests" }'
else
    echo "testonly-api: note: the binaries did not build; API reached only from swbench/ is not listed"
fi
exit $status
