#!/usr/bin/env bash
# Prints the workspace's non-test line count: for every Rust file under
# crates/*/src, the lines before its first `#[cfg(test)]` line (all of its
# lines when it has none). The pattern is anchored to the start of a line,
# so a doc comment that mentions the attribute does not end the count.
#
# Usage: scripts/nontest-lines.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
total=0
while IFS= read -r -d '' file; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    total=$((total + lines))
done < <(find crates/*/src -name '*.rs' -print0)
echo "$total"
