#!/usr/bin/env bash
# Function-grain reach listing (DESIGN.md §9.1): every src/ function outside
# src/oracle/ that a test binary keeps and no product binary does.
#
#   scripts/reach.sh           print the listing, one function a line
#   scripts/reach.sh --check   also compare it with the allowlist
#
# Builds the tree and perfbench's own tree unoptimized under build-reach/,
# with every function in its own section and --gc-sections, so a binary
# keeps exactly the functions something in it calls. Each entry prints as
# "<demangled signature><TAB><file>:<line>".
#
# --check compares each entry's qualified name (the signature before its
# first '(', ABI tags dropped) with tools/lint/reach_allow.txt, whose lines
# are "<category> <qualified name>" with category accessor, test-reference
# or paper-equation, both ways: an entry must be allowlisted, and an
# allowlisted name must still be an entry. Exit: 0 listed (and the two
# agree), 1 an entry not allowlisted, an allowlisted name not listed, or a
# malformed or repeated allowlist line, 2 usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
OUT=build-reach
for a in "$@"; do
  case "$a" in
    --check) CHECK=1 ;;
    *) echo "unknown argument: $a" >&2; exit 2 ;;
  esac
done
JOBS=$(nproc 2>/dev/null || echo 4)
ALLOW=tools/lint/reach_allow.txt

FLAGS="-O0 -g -fno-inline -ffunction-sections"
for t in main perf; do  # the tree, and perfbench's own build of src/
  s=.; [ $t = perf ] && s=perfbench
  cmake --no-warn-unused-cli -S $s -B "$OUT/$t" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
    -DENABLE_WERROR=OFF >/dev/null
done
cmake --build "$OUT/main" -j "$JOBS" >/dev/null
cmake --build "$OUT/perf" -j "$JOBS" --target perfbench >/dev/null

# Every function a product binary keeps.
for b in "$OUT"/main/bench/{cloudfog_figs,bench_scenarios,bench_micro} \
    "$OUT"/main/examples/{quickstart,evening_peak,cloudfog_cli,guild_battle,mobile_thin_client} \
    "$OUT"/main/tools/tracecat "$OUT"/perf/perfbench; do nm -C --defined-only "$b"; done |
  awk '$2 ~ /^[TtWw]$/' | cut -d' ' -f3- | sort -u >"$OUT/product.syms"
# Every src/ function (outside src/oracle/) a test binary keeps, with its line.
for t in $(find "$OUT/main/tests" -maxdepth 1 -name 'test_*' -type f -executable); do
  nm -C -l --defined-only "$t"; done | awk -F'\t' -v src="$PWD/src/" \
  '$1 ~ / [TtWw] / && index($2, src) == 1 && index($2, src "oracle/") != 1 {
     sub(/^[0-9a-f]+ [TtWw] /, "", $1); print $1 "\t" $2 }' | sort -u >"$OUT/test.syms"
# src/ functions only tests reach.
awk -F'\t' 'NR == FNR { p[$0] = 1; next } !($1 in p)' \
  "$OUT/product.syms" "$OUT/test.syms" >"$OUT/reach.txt"
cat "$OUT/reach.txt"
echo "reach: $(wc -l <"$OUT/reach.txt") src/ functions only tests reach" >&2

[ "$CHECK" -eq 1 ] || exit 0
awk -v allow="$ALLOW" '
  BEGIN {
    while ((getline line < allow) > 0) {
      ++n
      if (line ~ /^[[:space:]]*(#|$)/) continue
      cat = line; sub(/[[:space:]].*$/, "", cat)
      name = line; sub(/^[^[:space:]]+[[:space:]]+/, "", name); sub(/[[:space:]]+$/, "", name)
      if ((cat != "accessor" && cat != "test-reference" && cat != "paper-equation") ||
          name == line) {
        printf "%s:%d: expected \"<accessor|test-reference|paper-equation> <name>\"\n",
               allow, n > "/dev/stderr"
        bad = 1; continue
      }
      if (name in ok) { printf "%s:%d: %s is listed twice\n", allow, n, name > "/dev/stderr"; bad = 1 }
      ok[name] = 1
    }
  }
  {
    sig = $0; sub(/\t.*$/, "", sig)
    name = sig; sub(/\(.*$/, "", name); gsub(/\[abi:[a-z0-9]*\]/, "", name)
    listed[name] = 1
    if (!(name in ok)) { print "reach: not allowlisted: " $0 > "/dev/stderr"; bad = 1 }
  }
  END {
    for (name in ok)
      if (!(name in listed)) { print "reach: allowlisted but not listed: " name > "/dev/stderr"; bad = 1 }
    exit bad
  }' "$OUT/reach.txt" || {
  echo "reach --check FAILED: delete the function, wire it into a product" \
    "binary, or allowlist it with its category in $ALLOW; drop an" \
    "allowlist line whose function is gone or now reaches a product" >&2
  exit 1; }
echo "reach --check: the listing and the allowlist agree" >&2
