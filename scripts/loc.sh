#!/usr/bin/env bash
# Non-test source line count per crate under crates/*/src, and in total.
#
# A file's non-test lines are those before its first `#[cfg(test)]` line,
# which in this workspace always opens the file's test module. The
# `code` column drops blank lines and comment-only lines (`//`, `///`,
# `//!`) from that figure.
#
#   scripts/loc.sh           # counts for this checkout
#   scripts/loc.sh DIR       # counts for another checkout rooted at DIR
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-10s %8s %8s\n' crate lines code
for dir in crates/*/src; do
  find "$dir" -name '*.rs' | sort | xargs awk -v crate="$(basename "$(dirname "$dir")")" '
    FNR == 1 { in_tests = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { lines++ }
    $0 !~ /^[ \t]*(\/\/|$)/ { code++ }
    END { printf "%-10s %8d %8d\n", crate, lines, code }
  '
done | awk '{ print; lines += $2; code += $3 } END { printf "%-10s %8d %8d\n", "total", lines, code }'
