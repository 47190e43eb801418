#!/usr/bin/env bash
# Docs-drift gate, run by the CI docs job from the repository root:
#
#   1. extract the README quickstart block (between the quickstart:begin /
#      quickstart:end markers) and execute it verbatim with bash -e — a
#      renamed flag, moved example, or broken subcommand fails here;
#   2. check every relative markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   3. check every flag in a README flag table (rows beginning | `--) is
#      listed by `leq --help` — a deleted flag fails here instead of
#      lingering in the docs;
#   4. check every `leq_bench_*`, `leq_example_*` or `leq_test_*` name in
#      README.md or docs/*.md is a target of the ./build tree — a deleted
#      binary fails here instead of lingering in the docs.
#
# Usage: scripts/check_docs.sh   (expects ./build/leq to exist)
set -euo pipefail

fail() { echo "check_docs: $*" >&2; exit 1; }

[ -x build/leq ] || fail "./build/leq not built (cmake --build build first)"

# ---- 1. run the quickstart verbatim -----------------------------------------
quickstart=$(awk '/<!-- quickstart:begin -->/,/<!-- quickstart:end -->/' \
                 README.md | sed -n '/^```sh$/,/^```$/p' | sed '1d;$d')
[ -n "$quickstart" ] || fail "no quickstart block found in README.md"

echo "== running README quickstart =="
printf '%s\n' "$quickstart"
bash -euo pipefail -c "$quickstart" ||
    fail "README quickstart drifted from the built leq binary"
echo "== quickstart ok =="

# ---- 2. markdown link check -------------------------------------------------
status=0
for doc in README.md docs/*.md; do
    dir=$(dirname "$doc")
    # markdown links, minus web URLs and intra-page anchors
    while IFS= read -r target; do
        # strip a trailing #anchor
        file=${target%%#*}
        [ -n "$file" ] || continue
        if [ ! -e "$dir/$file" ]; then
            echo "check_docs: $doc links to missing file '$target'" >&2
            status=1
        fi
    done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' |
             grep -v '^https\?://' || true)
done
[ "$status" -eq 0 ] || fail "broken markdown links"
echo "== links ok =="

# ---- 3. README flag tables match leq --help ---------------------------------
help=$(build/leq --help 2>&1) || fail "leq --help failed"
status=0
while IFS= read -r flag; do
    if ! grep -qE -- "(^|[^a-z-])$flag([^a-z-]|\$)" <<<"$help"; then
        echo "check_docs: README.md documents $flag, which leq --help" \
             "does not list" >&2
        status=1
    fi
done < <(grep -o '^| `--[a-z-]*' README.md | sed 's/^| `//')
[ "$status" -eq 0 ] || fail "README flag table drifted from leq --help"
echo "== flags ok =="

# ---- 4. documented binaries are build targets -------------------------------
targets=$(cmake --build build --target help 2>&1) ||
    fail "cmake --build build --target help failed"
status=0
while IFS= read -r name; do
    if ! grep -qE -- "(^|[^a-z0-9_])$name([^a-z0-9_]|\$)" <<<"$targets"; then
        echo "check_docs: the docs name $name, which is not a build target" >&2
        status=1
    fi
done < <(grep -ohE 'leq_(bench|example|test)_[a-z0-9_]+' README.md docs/*.md |
         sort -u)
[ "$status" -eq 0 ] || fail "docs name binaries the build no longer makes"
echo "== binaries ok =="
