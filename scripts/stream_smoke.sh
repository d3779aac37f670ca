#!/usr/bin/env bash
# Streaming-sweep smoke: the constant-memory result pipeline and the
# multi-process shard/merge fan-out, exercised end-to-end through the
# CLI. Checks the contracts the streaming path ships with:
#
#  * the row-streamed JSON/CSV artifacts (and stdout) are
#    byte-identical at `--threads 1` and `--threads 2`, and a run that
#    fails leaves no artifact or temporary behind;
#  * N `--shard i/N --out-wcmt` processes run concurrently, and
#    `--merge` folds their `.wcmt` outputs into a report byte-identical
#    to the single-process run;
#  * the stable exit codes hold: 0 on success, 2 on usage errors
#    (options a mode would ignore included) and inconsistent/incomplete
#    shard sets, 3 on malformed or truncated shard files.
#
# Seconds, not minutes — meant for every PR touching the sweep engine,
# the wire format or the CLI result pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p wcm-cli
cli=target/release/wcm-cli
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

base=(sweep --clips newscast,sports --gops 1
      --pe2-mhz 5,20,60,200 --capacities 16,400,1620
      --policies backpressure,reject --k 600)

echo "== streaming sinks: byte-identical artifacts and stdout across threads =="
"$cli" "${base[@]}" --threads 1 --json "$out/dense.json" --csv "$out/dense.csv" >"$out/dense.out"
"$cli" "${base[@]}" --threads 2 --json "$out/t2.json" --csv "$out/t2.csv" >"$out/t2.out"
cmp "$out/dense.json" "$out/t2.json"
cmp "$out/dense.csv" "$out/t2.csv"
cmp "$out/dense.out" "$out/t2.out"
# The row-streaming writers must clean up their temporaries.
if ls "$out"/*.part >/dev/null 2>&1; then
  echo "leftover .part temporary after a successful run"; exit 1
fi
echo "ok: JSON, CSV and stdout identical for --threads 1 vs 2"

echo "== no artifact or .part left on error exits =="
# --k 0 fails spec validation *inside* the streaming run, after the
# row sinks (and their temp files) already exist: the scoped guards
# must remove the temps on that exit-2 path too, and neither report
# may appear.
rc=0; "$cli" "${base[@]}" --k 0 --json "$out/fail.json" --csv "$out/fail.csv" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "invalid spec must exit 2, got $rc"; exit 1; }
if ls "$out"/*.part "$out"/fail.* >/dev/null 2>&1; then
  echo "leftover artifact or .part temporary after an error exit"; exit 1
fi
rc=0; "$cli" "${base[@]}" --pe1-mhz nope --json "$out/fail.json" --csv "$out/fail.csv" 2>/dev/null || rc=$?
[ "$rc" -ne 0 ] || { echo "bad --pe1-mhz must fail"; exit 1; }
if ls "$out"/*.part "$out"/fail.* >/dev/null 2>&1; then
  echo "leftover artifact or .part temporary after a parse-error exit"; exit 1
fi
rc=0; "$cli" "${base[@]}" --k 0 --shard 0/1 --out-wcmt "$out/fail.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "invalid shard spec must exit 2, got $rc"; exit 1; }
if ls "$out"/*.part "$out"/fail.* >/dev/null 2>&1; then
  echo "leftover shard stream or .part temporary after an error exit"; exit 1
fi
echo "ok: error exits leave no artifact or .part behind"

echo "== shard x merge == single process =="
pids=()
for i in 0 1 2; do
  "$cli" "${base[@]}" --shard "$i/3" --out-wcmt "$out/s$i.wcmt" >/dev/null &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
"$cli" sweep --merge "$out/s0.wcmt,$out/s1.wcmt,$out/s2.wcmt" \
    --json "$out/merged.json" --csv "$out/merged.csv" >"$out/merged.out"
cmp "$out/dense.json" "$out/merged.json"
cmp "$out/dense.csv" "$out/merged.csv"
[ "$(head -n 1 "$out/merged.out")" = "merged_shards 3" ] || { echo "merge must report 3 shards"; exit 1; }
tail -n +2 "$out/merged.out" | cmp - "$out/dense.out"
echo "ok: 3 concurrent shard processes merge to the single-process bytes and stdout"

echo "== exit-code contract =="
# Truncated shard file: decodable header, stream cut mid-frame -> 3.
head -c 40 "$out/s0.wcmt" >"$out/truncated.wcmt"
rc=0; "$cli" sweep --merge "$out/truncated.wcmt,$out/s1.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "truncated shard must exit 3, got $rc"; exit 1; }
# Not a .wcmt stream at all -> 3.
printf 'not a wcmt stream' >"$out/garbage.wcmt"
rc=0; "$cli" sweep --merge "$out/garbage.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "malformed shard must exit 3, got $rc"; exit 1; }
# Incomplete shard set (2 of 3) -> 2.
rc=0; "$cli" sweep --merge "$out/s0.wcmt,$out/s1.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "incomplete shard set must exit 2, got $rc"; exit 1; }
# Shards from different sweeps (capacities differ -> fingerprints
# differ) -> 2.
"$cli" sweep --clips newscast,sports --gops 1 --pe2-mhz 5,20,60,200 \
    --capacities 16,400,1621 --policies backpressure,reject \
    --k 600 --shard 1/3 --out-wcmt "$out/alien.wcmt" >/dev/null
rc=0; "$cli" sweep --merge "$out/s0.wcmt,$out/alien.wcmt,$out/s2.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "mismatched shard set must exit 2, got $rc"; exit 1; }
# Usage errors -> 2.
rc=0; "$cli" "${base[@]}" --shard 0/2 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--shard without --out-wcmt must exit 2, got $rc"; exit 1; }
rc=0; "$cli" "${base[@]}" --out-wcmt "$out/x.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--out-wcmt without --shard must exit 2, got $rc"; exit 1; }
rc=0; "$cli" "${base[@]}" --shard 2/2 --out-wcmt "$out/x.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "out-of-range shard index must exit 2, got $rc"; exit 1; }
rc=0; "$cli" sweep --merge "$out/s0.wcmt" --shard 0/2 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--merge with --shard must exit 2, got $rc"; exit 1; }
# --merge takes no grid option and no --threads; it must refuse them
# rather than ignore them, and write no artifact.
rc=0; "$cli" sweep --merge "$out/s0.wcmt,$out/s1.wcmt,$out/s2.wcmt" --seeds 5 \
    --policies reject --threads 2 --metrics-out "$out/m.json" --trace-out "$out/t.json" \
    2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--merge with grid options must exit 2, got $rc"; exit 1; }
rc=0; "$cli" sweep --merge "$out/s0.wcmt,$out/s1.wcmt,$out/s2.wcmt" --threads 2 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--merge with --threads must exit 2, got $rc"; exit 1; }
if ls "$out/m.json" "$out/t.json" >/dev/null 2>&1; then
  echo "a refused --merge wrote its trace/metrics"; exit 1
fi
# --frontier writes no report, so --json/--csv are refused.
for key in json csv; do
  rc=0; "$cli" "${base[@]}" --frontier bisect --$key "$out/f.$key" 2>/dev/null || rc=$?
  [ "$rc" -eq 2 ] || { echo "--frontier with --$key must exit 2, got $rc"; exit 1; }
done
[ ! -e "$out/f.json" ] && [ ! -e "$out/f.csv" ] || { echo "a refused --frontier wrote a report"; exit 1; }
# Removed options are unknown options.
for opt in "--stream on" "--frontier dense" "--cert-depth 3300"; do
  # shellcheck disable=SC2086
  rc=0; "$cli" "${base[@]}" $opt 2>/dev/null || rc=$?
  [ "$rc" -eq 2 ] || { echo "$opt must exit 2, got $rc"; exit 1; }
done
echo "ok: exit codes 0/2/3 as documented"

echo "stream smoke: all checks passed"
