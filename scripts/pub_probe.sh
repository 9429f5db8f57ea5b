#!/usr/bin/env bash
# Prints each `pub fn` that no non-test code names, as `FILE:LINE NAME`,
# then their count. Non-test code is every `.rs` file under a `src/`
# directory of `crates/`, up to the first `#[cfg(test)]` that starts at
# column 0 of its file, plus `examples/`; files under `tests/` and
# everything under a `target/` directory are skipped. String literals
# that open and close on one line are emptied, then comments are cut
# from `//` to the end of the line, so a name that appears only in doc
# text or in a message counts as unnamed. A name counts as named when it
# appears as a word more often than `fn NAME` defines it. The probe goes
# by name only: a `pub fn` that shares its name with a function some
# other code calls is not printed, whichever of the two is called, and
# so a `pub fn` named like a std method (`reserve`, `len`, `get`) stays
# invisible to it.
#
# Usage: scripts/pub_probe.sh [DIR]   (default: the repository root)
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

mapfile -t files < <(
    {
        find crates -name target -prune -o -type f -path '*/src/*' -name '*.rs' -print
        find examples -type f -name '*.rs' -print
    } | grep -v '/tests/' | sort
)

# One awk run over every file: the counts must see all of them at once.
unnamed="$(awk '
    FNR == 1 { live = 1; lib = (FILENAME ~ /^crates\//) }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live { next }
    {
        line = $0
        gsub(/'"'"'(\\)?"'"'"'/, "'"'"'_'"'"'", line)
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        sub(/\/\/.*/, "", line)
        if (lib && match(line, /(^|[^A-Za-z0-9_])pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*pub fn /, "", name)
            where[name] = where[name] FILENAME ":" FNR " " name "\n"
        }
        rest = line
        while (match(rest, /(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(rest, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
            defs[name]++
            rest = substr(rest, RSTART + RLENGTH)
        }
        n = split(line, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (words[i] != "") uses[words[i]]++
        }
    }
    END {
        for (name in where) {
            if (uses[name] <= defs[name]) printf "%s", where[name]
        }
    }
' "${files[@]}" | sort -t: -k1,1 -k2,2n)"

[ -n "$unnamed" ] && printf '%s\n' "$unnamed"
printf 'unnamed pub fns: %d\n' "$(printf '%s' "$unnamed" | grep -c . || true)"
