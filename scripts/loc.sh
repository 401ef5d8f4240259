#!/usr/bin/env bash
# loc.sh — non-test Go lines per package, and the net change against a ref.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh 9498584    # ... with per-package and total deltas vs that commit
#
# Counted: every line of every *.go file that is not a _test.go file and not
# under bench/ (frozen by BENCHMARK.json) or a testdata/ directory — so code
# moved into tests or fixtures does not count as removed. The working tree
# includes untracked, un-ignored files. ROADMAP aim 2 reports lines removed;
# this is the command that says how many.
set -euo pipefail

cd "$(dirname "$0")/.."

base=${1:-}
if [ -n "$base" ] && ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
    echo "loc.sh: $base is not a commit here (shallow clone?); printing totals only" >&2
    base=""
fi

# count <tag> [ref]: "<tag> <package-dir> <lines>" per counted file.
# `git grep -c ''` counts the lines of each file, in a tree or in the work tree.
count() {
    local tag=$1 ref=${2:-}
    if [ -n "$ref" ]; then
        git grep -c '' "$ref" -- '*.go' | sed "s/^$ref://"
    else
        git grep --untracked -c '' -- '*.go'
    fi | awk -F: -v tag="$tag" '
        $1 ~ /_test\.go$/ || $1 ~ /^bench\// || $1 ~ /(^|\/)testdata\// { next }
        { dir = $1; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."; print tag, dir, $2 }'
}

{
    count now
    if [ -n "$base" ]; then count base "$base"; fi
} | awk '
    { lines[$1, $2] += $3; pkgs[$2] = 1 }
    END { for (p in pkgs) print p, lines["now", p] + 0, lines["base", p] + 0 }' |
    sort | awk -v base="$base" '
    function row(name, now, was) {
        if (base == "") printf "%-28s %7d\n", name, now
        else printf "%-28s %7d %+7d\n", name, now, now - was
    }
    BEGIN { printf "%-28s %7s%s\n", "package", "lines", base == "" ? "" : "   delta" }
    { row($1, $2, $3); now += $2; was += $3 }
    END { row("total", now, was) }'
