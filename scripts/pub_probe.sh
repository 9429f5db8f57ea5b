#!/usr/bin/env bash
# Prints each `pub fn` that no non-test code uses, as `FILE:LINE NAME`,
# then their count. The compiler decides, not a word count:
#
# 1. The tracked tree (plus untracked files git does not ignore) is
#    copied to a temporary directory, which is removed on exit; the
#    tree itself is never written.
# 2. The copy must build as it is (`cargo check --workspace --lib --bins
#    --examples`); the probe fails if it does not.
# 3. Every `pub fn` and `pub const fn` under `crates/*/src` becomes
#    `pub(crate)`.
# 4. The copy is checked again until it builds. After each check, `pub`
#    goes back on each demoted definition that rustc names in a "defined
#    here" note (E0603, E0624). For a `pub use` that can no longer
#    re-export a name (E0364), it goes back on the demoted definitions
#    of that name in the same crate.
# 5. Each demoted function that rustc's `dead_code` lint then reports is
#    printed.
#
# Libraries, binaries (`repro`, and `perf`, whose `main.rs` is also a
# binary of rb-bench) and examples count as users; tests, doctests and
# `#[cfg(test)]` code do not. The probe fails when a check leaves errors
# but names no demoted definition, so a change in rustc's messages
# cannot pass as a short list. Needs `cargo` and `jq`. Takes about 17 s
# (14 checks, cold target directory) on a 2-vCPU x86-64 host.
#
# Usage: scripts/pub_probe.sh [DIR]   (default: the repository root)
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
copy="$tmp/tree"
mkdir "$copy"

# A directory that is not a git work tree (an exported checkout) is
# copied whole but for `target/` directories.
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    (cd "$root" && git ls-files -z --cached --others --exclude-standard \
        | tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -xf - -C "$copy"
else
    tar -C "$root" --exclude=./target --exclude='*/target' -cf - . | tar -xf - -C "$copy"
fi
cd "$copy"

# Warnings must stay warnings, and the copy builds into its own target
# directory.
unset RUSTFLAGS CARGO_ENCODED_RUSTFLAGS
export CARGO_TARGET_DIR="$tmp/target"

checks=0
# One check, its JSON messages in $tmp/check.json; succeeds when the copy
# builds.
check() {
    checks=$((checks + 1))
    cargo check --offline --quiet --workspace --lib --bins --examples --keep-going \
        --message-format=json >"$tmp/check.json" 2>/dev/null
}

if ! check; then
    echo "pub_probe: the tree does not build as it is" >&2
    exit 1
fi

# Demote, and remember each demoted definition as FILE:LINE (the edit
# keeps every line where it was).
pat='(^|[^A-Za-z0-9_])pub (const )?fn '
grep -rnE --include='*.rs' "$pat" crates/*/src | cut -d: -f1,2 | sort -u >"$tmp/demoted"
grep -rlE --include='*.rs' "$pat" crates/*/src | xargs sed -i -E "s/$pat/\\1pub(crate) \\2fn /g"

# The demoted definitions the last check's errors ask for, as FILE:LINE.
wanted() {
    jq -r --arg copy "$copy/" '
        select(.reason == "compiler-message" and .message.level == "error")
        | .message
        | if .code.code == "E0603" or .code.code == "E0624" then
              (.spans[], .children[].spans[])
              | "\(.file_name | ltrimstr($copy)):\(.line_start)"
          elif .code.code == "E0364" then
              "E0364 \(.spans[0].file_name | ltrimstr($copy) | sub("/src/.*"; "/src")) \(.message | capture("`(?<n>[^`]+)`").n)"
          else empty end
    ' "$tmp/check.json" | sort -u >"$tmp/spans"
    grep -v '^E0364 ' "$tmp/spans" | grep -xFf - "$tmp/demoted" || true
    grep '^E0364 ' "$tmp/spans" | while read -r _ src name; do
        grep -rnE --include='*.rs' "pub\\(crate\\) (const )?fn $name\\b" "$src" \
            | cut -d: -f1,2 | grep -xFf - "$tmp/demoted" || true
    done || true
}

restored=0
until check; do
    wanted | sort -u >"$tmp/restore"
    if [ ! -s "$tmp/restore" ]; then
        echo "pub_probe: check $checks left errors but named no demoted definition:" >&2
        jq -r 'select(.reason == "compiler-message" and .message.level == "error")
            | .message.rendered' "$tmp/check.json" >&2
        exit 1
    fi
    while IFS=: read -r file line; do
        sed -i -E "${line}s/pub\\(crate\\) (const )?fn /pub \\1fn /" "$file"
    done <"$tmp/restore"
    grep -vxFf "$tmp/restore" "$tmp/demoted" >"$tmp/left" || true
    mv "$tmp/left" "$tmp/demoted"
    restored=$((restored + $(wc -l <"$tmp/restore")))
done

# The demoted definitions the dead_code lint reports, each with the name
# after its `fn`.
jq -r --arg copy "$copy/" '
    select(.reason == "compiler-message" and .message.code.code == "dead_code")
    | .message.spans[] | select(.is_primary)
    | "\(.file_name | ltrimstr($copy)):\(.line_start)"
' "$tmp/check.json" | sort -u | { grep -xFf - "$tmp/demoted" || true; } \
    | sort -t: -k1,1 -k2,2n >"$tmp/dead"
while IFS=: read -r file line; do
    echo "$file:$line $(sed -n "${line}s/.*fn \\([A-Za-z_][A-Za-z0-9_]*\\).*/\\1/p" "$file")"
done <"$tmp/dead"

echo "pub_probe: $checks checks, pub put back on $restored" >&2
printf 'pub fns without a non-test user: %d\n' "$(wc -l <"$tmp/dead")"
