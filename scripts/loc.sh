#!/usr/bin/env bash
# Prints the workspace's Rust line counts, split into non-test and test
# code. A line is test code when it sits in a file under a `tests/` or
# `examples/` directory, or at or after the first `#[cfg(test)]` that
# starts at column 0 of its file. Everything under a `target/` directory
# is skipped. Every line counts, blank and comment lines included.
# `xargs` may split the file list over several `awk` runs, so each run
# prints its partial sums and a last `awk` adds them up.
#
# Usage: scripts/loc.sh [DIR]   (default: the repository root)
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

find . -name target -prune -o -type f -name '*.rs' -print0 \
    | sort -z \
    | xargs -0 awk '
        FNR == 1 { test = (FILENAME ~ /\/(tests|examples)\//) }
        /^#\[cfg\(test\)\]/ { test = 1 }
        { if (test) t++; else n++ }
        END { print n + 0, t + 0 }
    ' \
    | awk '{ n += $1; t += $2 } END { printf "non-test %d\ntest %d\n", n, t }'
