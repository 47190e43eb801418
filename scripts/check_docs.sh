#!/usr/bin/env bash
# Docs-drift gate, run by the CI docs job from the repository root:
#
#   1. extract the README quickstart block (between the quickstart:begin /
#      quickstart:end markers) and execute it verbatim with bash -e — a
#      renamed flag, moved example, or broken subcommand fails here;
#   2. check every relative markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   3. check every `--flag` inside inline code (a backticked span outside
#      fenced blocks) in README.md or docs/*.md is listed by the usage text
#      of `leq`, `leq_fuzz`, `leq_bench_run` or scripts/bench_run.sh — a
#      deleted flag fails here instead of lingering in the docs.  Spans
#      quoting cmake or ctest are skipped: those flags are not ours;
#   4. check every `leq_bench_*`, `leq_example_*` or `leq_test_*` name in
#      README.md or docs/*.md is a target of the ./build tree — a deleted
#      binary fails here instead of lingering in the docs;
#   5. check every `leq_bench_run` workload id in inline code in README.md
#      or docs/*.md is listed by `leq_bench_run --list` — a retired bench
#      row fails here instead of lingering in the docs.  A workload id is a
#      slash-separated word (`reach/mix26`, `table1/*`) whose first part is
#      no directory of the repository or of src/; a `*` matches any suffix.
#
# Usage: scripts/check_docs.sh   (expects ./build/leq, ./build/leq_fuzz and
#        ./build/leq_bench_run to exist)
set -euo pipefail

fail() { echo "check_docs: $*" >&2; exit 1; }

for tool in leq leq_fuzz leq_bench_run; do
    [ -x "build/$tool" ] ||
        fail "./build/$tool not built (cmake --build build first)"
done

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

# ---- 3. documented flags match the tools' usage text -----------------------
usage=$( { build/leq --help; build/leq_fuzz --help; build/leq_bench_run --help
           sed -n '2,/^set -/p' scripts/bench_run.sh; } 2>&1) ||
    fail "a tool's --help failed"
status=0
for doc in README.md docs/*.md; do
    while IFS= read -r flag; do
        if ! grep -qE -- "(^|[^a-z-])$flag([^a-z-]|\$)" <<<"$usage"; then
            echo "check_docs: $doc documents $flag, which no tool's usage" \
                 "text lists" >&2
            status=1
        fi
    done < <(awk '/^```/ { fenced = !fenced; next } !fenced' "$doc" |
             grep -o '`[^`]*`' | grep -vE '^`(cmake|ctest) ' |
             grep -o -- '--[a-z][a-z0-9-]*' | sort -u || true)
done
[ "$status" -eq 0 ] || fail "docs name flags the tools no longer take"
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

# ---- 5. documented bench workloads are listed by leq_bench_run --------------
workloads=$(build/leq_bench_run --list) || fail "leq_bench_run --list failed"
status=0
for doc in README.md docs/*.md; do
    while IFS= read -r id; do
        root=${id%%/*}
        # a path such as `net/blif` or `bench/corpus`, not a workload id
        [ -d "$root" ] || [ -d "src/$root" ] && continue
        found=0
        while IFS= read -r listed; do
            # shellcheck disable=SC2053  # $id is a glob on purpose
            if [[ $listed == $id ]]; then found=1; break; fi
        done <<<"$workloads"
        if [ "$found" -eq 0 ]; then
            echo "check_docs: $doc names bench workload $id, which" \
                 "leq_bench_run --list lacks" >&2
            status=1
        fi
    done < <(awk '/^```/ { fenced = !fenced; next } !fenced' "$doc" |
             grep -o '`[^`]*`' | tr -d '`' | tr ' ' '\n' |
             grep -E '^[a-z0-9_]+(/[a-z0-9_*]+)+$' | sort -u || true)
done
[ "$status" -eq 0 ] || fail "docs name bench workloads leq_bench_run lacks"
echo "== workloads ok =="
