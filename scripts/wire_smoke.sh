#!/usr/bin/env bash
# Fast wire-format smoke: the binary `.wcmt` pipeline exercised end to
# end through the CLI. Checks the contracts the wire layer ships with:
#
#  * encode -> verify -> decode round-trips a text trace exactly, and the
#    binary file feeds straight back into the analysis subcommands with
#    output identical to the text original (cross-format equivalence);
#  * the `trace` exit-code contract holds: 0 clean, 2 empty stream,
#    3 malformed/truncated, 4 partial decode under --policy skip-corrupt;
#  * `curves` on a `.wcmt` trace whose window sums pass u64::MAX exits 1
#    with an analysis error naming the overflow, never 101 (a panic);
#  * `validate` diagnoses truncated text and binary artifacts as exit 3
#    with a file:line:byte cut point;
#  * `sweep --clips` rejects a `.wcmt` stream that carries no clips with
#    the "nothing to do" exit code instead of crashing.
#
# Seconds, not minutes — meant for every PR touching wcm-wire, the CLI
# routing or the hardened readers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p wcm-cli
cli=target/release/wcm-cli
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== encode -> verify -> decode round trip =="
printf '7 3 9 2 8 4 6 1\n' > "$out/demands.txt"
printf '0.0 0.5 1.0 1.5 2.0 2.5 3.0 3.5\n' > "$out/times.txt"
"$cli" trace encode --demands "$out/demands.txt" --times "$out/times.txt" \
    --name smoke --out "$out/stream.wcmt" >/dev/null
"$cli" trace verify --in "$out/stream.wcmt" >/dev/null
"$cli" trace decode --in "$out/stream.wcmt" \
    --out-demands "$out/demands.back" --out-times "$out/times.back" >/dev/null
[ "$(tr -s ' \n' ' ' < "$out/demands.txt")" = "$(tr -s ' \n' ' ' < "$out/demands.back")" ] \
  || { echo "decoded demands differ from the originals"; exit 1; }
echo "ok: binary round trip is exact"

echo "== cross-format: binary and text traces analyze identically =="
"$cli" curves --demands "$out/demands.txt" --k 4 > "$out/curves-text.out"
"$cli" curves --demands "$out/stream.wcmt" --k 4 > "$out/curves-wire.out"
cmp "$out/curves-text.out" "$out/curves-wire.out"
echo "ok: curves from .wcmt byte-identical to curves from text"

echo "== hostile demands: window sums past u64::MAX are exit 1, not a panic =="
printf '18446744073709551615\n1\n2\n3\n' > "$out/huge.txt"
"$cli" trace encode --demands "$out/huge.txt" --name huge --out "$out/huge.wcmt" >/dev/null
rc=0; "$cli" curves --demands "$out/huge.wcmt" --k 2 >/dev/null 2>"$out/huge.err" || rc=$?
[ "$rc" -eq 1 ] || { echo "overflowing window sums must exit 1, got $rc"; exit 1; }
grep -q 'window sum exceeds u64::MAX' "$out/huge.err" \
  || { echo "the error must name the overflow"; cat "$out/huge.err"; exit 1; }
echo "ok: an overflowing .wcmt trace is an analysis error (exit 1)"

echo "== trace exit-code contract (0/2/3/4) =="
size=$(stat -c %s "$out/stream.wcmt" 2>/dev/null || stat -f %z "$out/stream.wcmt")
rc=0; "$cli" trace decode --in "$out/stream.wcmt" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "clean decode must exit 0, got $rc"; exit 1; }
# 2: a stream that decodes fine but carries no events — header
# (MAGIC + version + flags) closed by the end-marker frame alone.
python3 - "$out/empty.wcmt" <<'EOF'
import struct, sys, zlib
frame = bytes([0xF5, 0x7E]) + struct.pack('<I', 0)
crc = struct.pack('<I', zlib.crc32(frame) & 0xFFFFFFFF)
open(sys.argv[1], 'wb').write(b'WCMT' + struct.pack('<HH', 1, 0) + frame + crc)
EOF
rc=0; "$cli" trace decode --in "$out/empty.wcmt" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "empty stream must exit 2, got $rc"; exit 1; }
head -c $((size - 4)) "$out/stream.wcmt" > "$out/cut.wcmt"
rc=0; "$cli" trace verify --in "$out/cut.wcmt" 2>"$out/cut.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "truncated stream must exit 3, got $rc"; exit 1; }
grep -q ':1:' "$out/cut.err" \
  || { echo "truncation diagnostic must carry file:line:byte"; cat "$out/cut.err"; exit 1; }
# 4: flip one byte mid-stream, decode leniently.
python3 - "$out/stream.wcmt" "$out/bad.wcmt" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[len(data) // 2] ^= 0x10
open(sys.argv[2], 'wb').write(data)
EOF
rc=0; "$cli" trace decode --in "$out/bad.wcmt" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "strict decode of damage must exit 3, got $rc"; exit 1; }
rc=0; "$cli" trace decode --in "$out/bad.wcmt" --policy skip-corrupt >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || { echo "partial decode must exit 4, got $rc"; exit 1; }
echo "ok: exit codes 0/2/3/4 as documented"

echo "== sweep rejects clip-free wire streams cleanly =="
rc=0; "$cli" sweep --clips "$out/stream.wcmt" --pe2-mhz 340 --capacities 4 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "clip-free .wcmt must exit 2 (nothing to do), got $rc"; exit 1; }
echo "ok: no clips in stream is a clean 'nothing to do'"

echo "== validate names the cut point in truncated artifacts =="
printf '{"stats": {},\n "points": [1, 2' > "$out/cut.json"
rc=0; "$cli" validate --json "$out/cut.json" 2>"$out/json.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "truncated JSON must exit 3, got $rc"; exit 1; }
grep -q ':2:' "$out/json.err" \
  || { echo "JSON truncation must name line 2"; cat "$out/json.err"; exit 1; }
printf 'a,b,c\n1,2,3\n4,5' > "$out/cut.csv"
rc=0; "$cli" validate --csv "$out/cut.csv" 2>"$out/csv.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "truncated CSV must exit 3, got $rc"; exit 1; }
grep -q ':3:' "$out/csv.err" \
  || { echo "CSV truncation must name line 3"; cat "$out/csv.err"; exit 1; }
rc=0; "$cli" validate --wcmt "$out/cut.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "truncated .wcmt must exit 3, got $rc"; exit 1; }
"$cli" validate --wcmt "$out/stream.wcmt" >/dev/null
echo "ok: truncated JSON/CSV/.wcmt all exit 3 with line:byte diagnostics"

echo "wire smoke: all checks passed"
