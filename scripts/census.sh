#!/usr/bin/env bash
# Dead-code census of the workspace's library surface.
#
# Prints every `pub fn` defined under crates/*/src whose name appears in no
# non-test code outside its own file, then the non-test line count.
#
#  * Non-test code is each .rs file cut at its first `#[cfg(test)]` line
#    (that line included), with comment lines and trailing `//` comments
#    removed, so doc comments and doctests never count as callers.
#  * Callers are the library sources, their bins (crates/*/src/bin), the
#    root facade (src/) and the examples (examples/, the bench_e2e harness
#    included). Integration tests and criterion benches are not callers.
#  * Matching is by name, so a function shares its callers with every
#    function of the same name: the list is a lower bound of what no flow
#    reaches, never a false positive about a called name.
#
# The line count sums every file under crates/*/src up to and including its
# first `#[cfg(test)]` (the whole file when it has none).
#
# Usage: scripts/census.sh   (from anywhere; reads the checkout it lives in)
set -euo pipefail
cd "$(dirname "$0")/.."

lib=$(find crates/*/src -name '*.rs' | LC_ALL=C sort)
callers=$(find crates/*/src src examples -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort)

# shellcheck disable=SC2086
orphans=$(awk '
  FNR == 1 { cut = 0 }
  cut { next }
  /#\[cfg\(test\)\]/ { cut = 1 }
  {
    line = $0
    sub(/\/\/.*/, "", line)
    n = split(line, tok, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
      t = tok[i]
      if (t == "") continue
      key = t SUBSEP FILENAME
      if (!(key in seen)) { seen[key] = 1; files[t]++ }
    }
  }
  FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /^[ \t]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
    def = substr($0, RSTART, RLENGTH)
    sub(/.*fn /, "", def)
    defs[++ndefs] = FILENAME ":" FNR ": " def
    name[ndefs] = def
    file[ndefs] = FILENAME
  }
  END {
    for (d = 1; d <= ndefs; d++) {
      key = name[d] SUBSEP file[d]
      if (files[name[d]] - ((key in seen) ? 1 : 0) == 0) print defs[d]
    }
  }
' $callers | LC_ALL=C sort -t: -k1,1 -k2,2n)
[ -n "$orphans" ] && echo "$orphans"
echo "orphan pub fns: $(grep -c . <<<"$orphans" || true)"

total=0
for f in $lib; do
  n=$(awk '{ print } /#\[cfg\(test\)\]/ { exit }' "$f" | wc -l)
  total=$((total + n))
done
echo "non-test lines under crates/*/src: $total"
