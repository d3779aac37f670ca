#!/usr/bin/env bash
# Fast observability smoke: a tiny sweep captured by the wcm-obs recorder,
# exercised end-to-end through the CLI. Checks the three contracts the
# observability layer ships with:
#
#  * `--trace-out` / `--metrics-out` produce artifacts that parse with the
#    strict in-repo readers (`wcm-cli validate`), and the trace carries the
#    expected sweep spans;
#  * recording is free of side effects: JSON/CSV reports are byte-identical
#    with the recorder on and off;
#  * the validator catches broken artifacts (exit 3) and empty invocations
#    (exit 2).
#
# Seconds, not minutes — meant for every PR touching wcm-obs, the report
# writers or the instrumented hot paths.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p wcm-cli
cli=target/release/wcm-cli
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

base=(sweep --clips newscast --gops 1 --pe2-mhz 5,60,340 --capacities 16,1620
      --k 600 --threads 2)

echo "== trace/metrics artifacts parse strictly =="
"$cli" "${base[@]}" --json "$out/on.json" --csv "$out/on.csv" \
    --trace-out "$out/trace.json" --metrics-out "$out/metrics.json" >/dev/null
"$cli" validate --json "$out/on.json" --csv "$out/on.csv" \
    --trace "$out/trace.json" --metrics "$out/metrics.json"
grep -q '"name":"sweep.run"' "$out/trace.json" \
  || { echo "trace must contain the sweep.run span"; exit 1; }
grep -q '"sweep.points"' "$out/metrics.json" \
  || { echo "metrics must contain the sweep.points counter"; exit 1; }
echo "ok: all four artifacts well-formed"

echo "== recorder has zero effect on report bytes =="
"$cli" "${base[@]}" --json "$out/off.json" --csv "$out/off.csv" >/dev/null
cmp "$out/on.json" "$out/off.json"
cmp "$out/on.csv" "$out/off.csv"
echo "ok: reports byte-identical with recorder on vs off"

echo "== validator exit-code contract =="
printf '{"points": [NaN]}' > "$out/broken.json"
rc=0; "$cli" validate --json "$out/broken.json" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "bare NaN must exit 3, got $rc"; exit 1; }
printf 'a,b\n1,2,3\n' > "$out/ragged.csv"
rc=0; "$cli" validate --csv "$out/ragged.csv" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "ragged CSV must exit 3, got $rc"; exit 1; }
rc=0; "$cli" validate 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "validate with no files must exit 2, got $rc"; exit 1; }
echo "ok: exit codes 2/3 as documented"

echo "obs smoke: all checks passed"
