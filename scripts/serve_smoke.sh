#!/usr/bin/env bash
# Serve smoke: the long-lived monitoring service exercised end-to-end
# through the CLI. Checks the contracts `wcm serve` ships with:
#
#  * tail ingestion of a `.wcmt` stream produces one JSON snapshot
#    line per session with an eq.-9 admission verdict;
#  * the stable exit codes hold: 0 clean drain, 2 usage (oversized
#    --threads/--shards included), 3 malformed source, 4 monitor
#    violations;
#  * hostile demands cannot crash the service: a session whose window
#    sums pass u64::MAX rejects at an unbounded frequency and the drain
#    still exits 0;
#  * the shard fan-out is deterministic: 2 threads x 2 shards write the
#    same snapshot bytes as 1 x 1;
#  * a timestamped session sizes PE2 by the arrival curve of its whole
#    stream: its final f_min equals `wcm-cli fmin` over the same files,
#    an early burst included, at 1 and 2 shards alike;
#  * SIGTERM drains gracefully: everything already on disk is flushed
#    into the final snapshots before the process exits 0;
#  * TCP ingestion accepts a plain `.wcmt` stream over a socket;
#  * 10k concurrent sessions fit in a flat memory envelope (the
#    per-session state is bounded curves + monitor, never the stream).
#
# Seconds, not minutes — meant for every PR touching serve, the wire
# decoder's live-tail seams, or the session/admission layer.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p wcm-cli
cargo build --release -q -p wcm-serve --example gen_sessions
cli=target/release/wcm-cli
gen=target/release/examples/gen_sessions
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== tail ingestion: snapshots + clean-drain exit 0 =="
"$gen" "$out/calm.wcmt" 5 96 >/dev/null
"$cli" serve --tail "$out/calm.wcmt" --idle-exit on \
  --k 12 --refresh 32 --pe2-mhz 100 --capacity 400 >"$out/calm.out"
grep -q '"session":"file:'"$out"'/calm.wcmt/s00000"' "$out/calm.out"
[ "$(grep -c '"verdict":"admit"' "$out/calm.out")" -eq 5 ]
grep -q '^sessions 5$' "$out/calm.out"
grep -q '^violations 0$' "$out/calm.out"
grep -q '^peak_rss_kb ' "$out/calm.out"
echo "ok: 5 sessions tailed, admitted, clean exit"

echo "== exit-code contract =="
rc=0; "$cli" serve --k 12 2>/dev/null >/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "serve without a source must exit 2, got $rc"; exit 1; }
rc=0; "$cli" serve --tail "$out/calm.wcmt" --policy nope 2>/dev/null >/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "bad --policy must exit 2, got $rc"; exit 1; }
# Counts above the pool cap (256) are usage errors, raised before any
# shard state is allocated.
rc=0; "$cli" serve --tail "$out/calm.wcmt" --threads 100000000000 --max-rounds 1 \
  2>/dev/null >/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "oversized --threads must exit 2, got $rc"; exit 1; }
rc=0; "$cli" serve --tail "$out/calm.wcmt" --shards 100000000000000 --max-rounds 1 \
  2>/dev/null >/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "oversized --shards must exit 2, got $rc"; exit 1; }
# Corrupt the first frame's sync byte: structurally malformed source.
cp "$out/calm.wcmt" "$out/bad.wcmt"
printf '\x00' | dd of="$out/bad.wcmt" bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
rc=0; "$cli" serve --tail "$out/bad.wcmt" --idle-exit on --max-rounds 3 \
  2>/dev/null >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "malformed source must exit 3, got $rc"; exit 1; }
# Demands spike x6 after a calm prefix: observed windows escape the
# envelope the monitors bound on that prefix -> violations, exit 4.
"$gen" "$out/spike.wcmt" 3 128 64 >/dev/null
rc=0; "$cli" serve --tail "$out/spike.wcmt" --idle-exit on \
  --k 12 --refresh 32 2>/dev/null >"$out/spike.out" || rc=$?
[ "$rc" -eq 4 ] || { echo "envelope violations must exit 4, got $rc"; exit 1; }
grep -q '^violations [1-9]' "$out/spike.out"
echo "ok: exits 2/3/4 hold"

echo "== hostile demands: a window sum past u64::MAX =="
printf '18446744073709551615\n1\n2\n3\n4\n5\n6\n7\n8\n9\n' >"$out/huge.txt"
"$cli" trace encode --demands "$out/huge.txt" --name huge --out "$out/huge.wcmt" >/dev/null
rc=0; "$cli" serve --tail "$out/huge.wcmt" --idle-exit on --k 4 --refresh 4 \
  --snapshots-out "$out/huge.snap" >"$out/huge.out" || rc=$?
[ "$rc" -eq 0 ] || { echo "an overflowing session must not fail the service, got $rc"; exit 1; }
grep -q '/huge","events":10,.*"verdict":"reject","f_min_hz":null' "$out/huge.snap" || {
  echo "an overflowing session must reject at an unbounded frequency"; exit 1; }
echo "ok: the overflowing session rejects, exit 0"

echo "== shard fan-out: 2 threads x 2 shards == 1 x 1 =="
"$gen" "$out/fan.wcmt" 64 96 >/dev/null
for n in 1 2; do
  "$cli" serve --tail "$out/fan.wcmt" --idle-exit on --threads "$n" --shards "$n" \
    --k 12 --refresh 32 --pe2-mhz 100 --capacity 400 \
    --snapshots-out "$out/fan$n.snap" >/dev/null
done
[ "$(wc -l <"$out/fan1.snap")" -eq 64 ] || { echo "expected 64 snapshot lines"; exit 1; }
cmp "$out/fan1.snap" "$out/fan2.snap" || {
  echo "snapshots differ between 1 and 2 shards"; exit 1; }
echo "ok: 64 sessions, byte-identical snapshots at 1 and 2 shards"

echo "== timestamped session: whole-stream arrival curve =="
# 6 016 events at 25 Hz with a burst at 8x that rate in stamps 200..259,
# so the whole stream's arrival curve differs from any recent window's.
awk 'BEGIN { split("900 150 150 420 150 150 420 150 150 420 150 150", g, " ");
  for (i = 0; i < 6016; i++) print g[i % 12 + 1] + (i * 37) % 23 }' >"$out/timed-d.txt"
awk 'BEGIN { t = 0; p = 1 / 25;
  for (i = 0; i < 6016; i++) { t += (i >= 200 && i < 260) ? p / 8 : p; printf "%.6f\n", t } }' \
  >"$out/timed-t.txt"
"$cli" trace encode --demands "$out/timed-d.txt" --times "$out/timed-t.txt" --name timed \
  --out "$out/timed.wcmt" >/dev/null
for n in 1 2; do
  rc=0; "$cli" serve --tail "$out/timed.wcmt" --idle-exit on --threads "$n" --shards "$n" \
    --k 64 --refresh 64 --capacity 400 --snapshots-out "$out/timed$n.snap" >/dev/null 2>&1 || rc=$?
  # The burst and the demand pattern break curves measured on earlier
  # prefixes: the monitor flags 230 windows (exit 4).
  [ "$rc" -eq 4 ] || { echo "timed serve must exit 4, got $rc"; exit 1; }
done
cmp "$out/timed1.snap" "$out/timed2.snap" || {
  echo "timed snapshots differ between 1 and 2 shards"; exit 1; }
grep -q '"events":6016,.*"refreshes":94,.*"violations":230,' "$out/timed1.snap"
served=$(sed -n 's/.*"f_min_hz":\([0-9.]*\).*/\1/p' "$out/timed1.snap")
"$cli" fmin --times "$out/timed-t.txt" --demands "$out/timed-d.txt" --k 64 --buffer 400 \
  >"$out/timed.fmin"
whole=$(awk '/^f_min_workload_hz/ { print $2 }' "$out/timed.fmin")
awk -v a="$served" -v b="$whole" 'BEGIN { d = a - b; exit !(a != "" && d <= 0.1 && d >= -0.1) }' || {
  echo "served f_min $served Hz != whole-trace fmin $whole Hz"; exit 1; }
# The arrival-curve window knob is gone: the option is a usage error.
rc=0; "$cli" serve --tail "$out/timed.wcmt" --idle-exit on --times-window 8 \
  2>/dev/null >/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--times-window must exit 2, got $rc"; exit 1; }
echo "ok: timed session f_min ${served} Hz = fmin ${whole} Hz at 1 and 2 shards"

echo "== graceful drain on SIGTERM =="
"$gen" "$out/full.wcmt" 100 40 >/dev/null
full_len=$(wc -c <"$out/full.wcmt")
cut=$((full_len / 3))
head -c "$cut" "$out/full.wcmt" >"$out/live.wcmt"
"$cli" serve --tail "$out/live.wcmt" --poll-ms 20 \
  --k 8 --refresh 16 --pe2-mhz 100 \
  --snapshots-out "$out/drain.snap" >"$out/drain.out" &
pid=$!
sleep 0.4
# The writer appends the rest (a torn frame sits at the cut point: the
# live decoder must park on it, then resume — never report truncation).
tail -c +"$((cut + 1))" "$out/full.wcmt" >>"$out/live.wcmt"
sleep 0.6
kill -TERM "$pid"
rc=0; wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "SIGTERM drain must exit 0, got $rc"; exit 1; }
[ "$(wc -l <"$out/drain.snap")" -eq 100 ] || { echo "expected 100 snapshot lines"; exit 1; }
[ "$(grep -c '"events":40' "$out/drain.snap")" -eq 100 ] || {
  echo "drain must flush every session to its full 40 events"; exit 1; }
echo "ok: SIGTERM flushed all 100 sessions through the torn-frame seam"

echo "== TCP ingestion =="
port=$((20000 + RANDOM % 20000))
"$cli" serve --listen "127.0.0.1:$port" --poll-ms 20 \
  --k 8 --refresh 16 --pe2-mhz 100 \
  --snapshots-out "$out/tcp.snap" >"$out/tcp.out" &
pid=$!
sleep 0.4
cat "$out/calm.wcmt" >"/dev/tcp/127.0.0.1/$port"
sleep 0.6
kill -TERM "$pid"
rc=0; wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "TCP serve drain must exit 0, got $rc"; exit 1; }
[ "$(grep -c '"events":96' "$out/tcp.snap")" -eq 5 ] || {
  echo "expected 5 TCP sessions at 96 events"; exit 1; }
echo "ok: 5 sessions ingested over TCP"

echo "== 10k sessions: flat peak-memory guard =="
"$gen" "$out/big.wcmt" 10000 24 >/dev/null
"$cli" serve --tail "$out/big.wcmt" --idle-exit on \
  --k 8 --refresh 16 --pe2-mhz 100 --capacity 400 \
  --snapshots-out "$out/big.snap" >"$out/big.out"
grep -q '^sessions 10000$' "$out/big.out"
grep -q '^events 240000$' "$out/big.out"
[ "$(wc -l <"$out/big.snap")" -eq 10000 ]
peak=$(awk '/^peak_rss_kb/{print $2}' "$out/big.out")
# Measured ~44 MB for 10k sessions (~4.4 kB/session); the guard allows
# generous headroom while still catching any per-session state that
# starts retaining the stream instead of bounded curves.
[ -n "$peak" ] && [ "$peak" -lt 200000 ] || {
  echo "peak RSS $peak kB for 10k sessions exceeds the 200 MB guard"; exit 1; }
echo "ok: 10000 sessions, 240k events, peak RSS ${peak} kB"

echo "serve smoke: all checks passed"
