#!/usr/bin/env bash
# Fast sweep-engine smoke: a clean clippy run, then a tiny 3-clip design-
# space sweep exercised through the CLI. Checks the three contracts the
# sweep engine ships with:
#
#  * pruned (`--prune on`) and exhaustive (`--prune off`) sweeps agree on
#    the overflow verdict of every grid point (the analytic pre-pass may
#    decide a point, never re-classify it), on clean streams and on a
#    seed with arrival jitter, PE2 clock drift and a PE2 stall, and every
#    `replay_ok` digest equals the simulated one;
#  * reports are byte-identical across `--threads 1` and `--threads 8`
#    (deterministic work splitting, no wall-clock in the output);
#  * the stable exit codes hold end-to-end: 0 on success, 2 on usage
#    errors.
#
# Seconds, not minutes — meant for every PR touching the sweep engine,
# the sizing functions or the pipeline hot path.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings

cargo build --release -q -p wcm-cli
cli=target/release/wcm-cli
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

base=(sweep --clips newscast,drama,sports --gops 1
      --pe2-mhz 5,20,60,200 --capacities 16,400,1620
      --policies backpressure,reject --k 600)

echo "== pruned vs exhaustive: identical overflow verdicts =="
"$cli" "${base[@]}" --prune on --csv "$out/pruned.csv" >/dev/null
"$cli" "${base[@]}" --prune off --csv "$out/full.csv" >/dev/null
# Column 6 is the verdict; normalize analytic and simulated labels to the
# overflow bit before diffing.
norm() {
  awk -F, 'NR>1 { v = ($6 == "provably_unsafe" || $6 == "sim_overflow") \
                      ? "overflow" : "ok";
                  print $1","$2","$3","$4","$5","v }' "$1"
}
diff <(norm "$out/pruned.csv") <(norm "$out/full.csv")
echo "ok: $(($(wc -l <"$out/pruned.csv") - 1)) points agree"

echo "== pruned vs exhaustive, seeded: jitter + PE2 drift + PE2 stall =="
# The overflow certificate replays the seed's exact PE2 service times, so
# a slowed or stalled PE2 is pruned too; eq. 9 (safe) must not fire there.
seeded=(sweep --clips newscast,drama,sports --gops 1
        --pe2-mhz 5,20,60,200,340 --capacities 16,400,1620
        --policies backpressure,reject,drop-priority --seeds clean,7
        --inject "jitter:start=0,len=400,delay=0.002;drift:pe=2,start=200,len=2000,factor=150;stall:pe=2,at=500,extra=0.01"
        --k 600)
"$cli" "${seeded[@]}" --prune on --csv "$out/seeded_pruned.csv" >/dev/null
"$cli" "${seeded[@]}" --prune off --csv "$out/seeded_full.csv" >/dev/null
diff <(norm "$out/seeded_pruned.csv") <(norm "$out/seeded_full.csv")
# Column 5 is the seed (empty for clean).
seeded_unsafe=$(awk -F, 'NR>1 && $5 == "7" && $6 == "provably_unsafe"' "$out/seeded_pruned.csv" | wc -l)
seeded_safe=$(awk -F, 'NR>1 && $5 == "7" && $6 == "provably_safe"' "$out/seeded_pruned.csv" | wc -l)
[ "$seeded_unsafe" -gt 0 ] || { echo "the faulted seed should prune unsafe"; exit 1; }
[ "$seeded_safe" -eq 0 ] || { echo "eq. 9 must not call a PE2-drifted seed safe"; exit 1; }
echo "ok: $(($(wc -l <"$out/seeded_pruned.csv") - 1)) points agree, $seeded_unsafe seeded points pruned unsafe"

echo "== replay_ok digests equal the exhaustive run's, seeded grid =="
# Same grid order in both files: a `replay_ok` row must sit next to a
# `sim_ok` row with the same max_backlog, dropped and pe1_stalled_s
# (columns 7-9), byte for byte.
replayed=$(paste -d'|' "$out/seeded_pruned.csv" "$out/seeded_full.csv" | awk -F'|' '
  NR > 1 { split($1, p, ","); split($2, f, ",")
           if (p[6] == "replay_ok") {
             n++
             if (f[6] != "sim_ok" || p[7] != f[7] || p[8] != f[8] || p[9] != f[9]) {
               print "digest mismatch: " $0 > "/dev/stderr"; bad = 1 } } }
  END { if (bad) exit 1; print n + 0 }')
[ "$replayed" -gt 0 ] || { echo "the seeded grid should replay some digests"; exit 1; }
simulated=$(awk -F, 'NR>1 && $6 ~ /^sim_/' "$out/seeded_pruned.csv" | wc -l)
echo "ok: $replayed replay_ok rows equal their simulation; $simulated rows left to the simulator"

echo "== determinism: byte-identical reports across thread counts =="
"$cli" "${base[@]}" --threads 1 --json "$out/t1.json" --csv "$out/t1.csv" >/dev/null
"$cli" "${base[@]}" --threads 8 --json "$out/t8.json" --csv "$out/t8.csv" >/dev/null
cmp "$out/t1.json" "$out/t8.json"
cmp "$out/t1.csv" "$out/t8.csv"
echo "ok: JSON and CSV identical for --threads 1 vs 8"

echo "== exit-code contract =="
"$cli" sweep --pe2-mhz 60 --capacities 400 --clips newscast --gops 1 \
    --k 600 >/dev/null \
  || { echo "valid sweep must exit 0"; exit 1; }
rc=0; "$cli" sweep --capacities 400 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "missing --pe2-mhz must exit 2, got $rc"; exit 1; }
rc=0; "$cli" sweep --pe2-mhz 60 --capacities 400 --clips no_such_clip 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "unknown clip must exit 2, got $rc"; exit 1; }
rc=0; "$cli" sweep --pe2-mhz 60 --capacities 400 --prune maybe 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "bad --prune must exit 2, got $rc"; exit 1; }
# A zero-slot FIFO is a usage error whether or not the analytic pre-pass
# would decide the point before the simulator sees it.
for caps in 0,16 0; do
  for prune in on off; do
    rc=0; "$cli" sweep --clips newscast --gops 1 --pe2-mhz 5,2000 \
      --capacities "$caps" --k 600 --prune "$prune" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "--capacities $caps --prune $prune must exit 2, got $rc"; exit 1; }
  done
done
echo "ok: exit codes 0/2 as documented"

echo "sweep smoke: all checks passed"
