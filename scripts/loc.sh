#!/usr/bin/env bash
# Print the Rust line counts ROADMAP.md tracks, for the tree at the given
# directory (default: the repository root):
#
#   total    every line of every .rs file under crates/, src/, tests/ and
#            examples/
#   library  every line of the library sources, crates/*/src without the
#            src/bin binaries
#   code     the library's non-test code: the lines before each file's
#            first top-level `#[cfg(test)]` (one in column 0), without
#            blank lines and `//` comment lines (doc comments included)
#
# Usage: scripts/loc.sh [dir]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

rust_files() {
    find "$@" -name '*.rs' -type f 2>/dev/null | LC_ALL=C sort
}

lines() {
    # `cat` first: wc prints no total for a single file.
    xargs -r cat | wc -l
}

total=$(rust_files crates src tests examples | lines)
library=$(rust_files crates/*/src | grep -v '/src/bin/' | lines)
code=$(rust_files crates/*/src | grep -v '/src/bin/' | xargs -r awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }')

echo "total   $total"
echo "library $library"
echo "code    $code"
