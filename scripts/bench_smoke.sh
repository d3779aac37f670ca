#!/usr/bin/env bash
# Fast benchmark + lint smoke: a clean clippy run, the curve- and sweep-
# related criterion benches in quick mode, the bench_curves/bench_sweep
# summaries that write BENCH_curves.json / BENCH_sweep.json, the
# sweep-engine contract smoke, and a perf-regression guard over the
# freshly written JSONs. Minutes, not hours — meant for every PR, while
# `cargo bench --workspace` remains the full run.
#
# The guard checks *ratios between paths measured in the same process*
# (old rescan vs prefix scans, legacy heap loop vs hot path, exhaustive
# vs pruned sweep, one-GOP append vs full rebuild), never absolute
# wall-clock: ratios survive a migration to a slower or busier host,
# absolute numbers don't. Thresholds sit well below the recorded wins
# (6.2x, 7.9x, 4.0x, 0.09) so only a real regression — not measurement
# noise — trips them.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings

quick=(--quick --warm-up-time 0.5 --measurement-time 1)
cargo bench -p wcm-bench --bench curve_construction -- "${quick[@]}"
cargo bench -p wcm-bench --bench minplus_ops -- "${quick[@]}"
cargo bench -p wcm-bench --bench sweep -- "${quick[@]}"
cargo bench -p wcm-bench --bench obs -- "${quick[@]}"

cargo run --release -q -p wcm-bench --bin bench_curves
cargo run --release -q -p wcm-bench --bin bench_sweep
cargo run --release -q -p wcm-bench --bin bench_obs

scripts/sweep_smoke.sh

echo "== perf-regression guard (BENCH_curves.json / BENCH_sweep.json) =="
# check <label> <measured> <op> <threshold> — float compare via awk.
check() {
    local label=$1 value=$2 op=$3 bound=$4
    if awk -v v="$value" -v b="$bound" "BEGIN { exit !(v $op b) }"; then
        echo "ok   $label = $value (want $op $bound)"
    else
        echo "FAIL $label = $value (want $op $bound)" >&2
        exit 1
    fi
}

# Curve construction: the prefix-sum rewrite must stay clearly ahead of
# the per-k sliding rescan, and appending one GOP to a summarized trace
# must stay far cheaper than a rebuild.
check "curves.speedup_prefix_vs_old"  "$(jq .window_sums.speedup_prefix_vs_old BENCH_curves.json)" ">=" 3.0
# Pruned window scans: on one MP@ML clip at k = 24 frames the block
# bounds must keep skipping most windows. The share is a count, not a
# time, so it is exact on any host (recorded 0.036; 1.0 means nothing is
# pruned any more). Where nothing can be pruned (a trace alternating 0
# and 4 000: every block holds a maximum and the step floor is 0) the
# bounds must not eat the prefix scan's lead over the rescan: same 3.0
# floor as the i.i.d. rung above. On that trace the pruned scan may cost
# at most 1.2x the blocked scan as it was before it pruned
# (`wcm_bench::legacy::window_maxima_unpruned`, same process): the
# design allows 1.15x, recorded 1.03-1.10x.
check "curves.pruned_scanned_frac"    "$(jq .pruned_scan.scanned_frac BENCH_curves.json)" "<=" 0.15
check "curves.constant_speedup_prefix_vs_old" "$(jq .window_sums_constant.speedup_prefix_vs_old BENCH_curves.json)" ">=" 3.0
check "curves.constant_pruned_over_unpruned" "$(jq .window_sums_constant.pruned_over_unpruned BENCH_curves.json)" "<=" 1.2
# ᾱ's span scan runs the same pruned kernel on the clip's FIFO-input
# stamps. Bounds tightened by the smallest gap separate the many spans
# that sit near the minimum (a count again: recorded 0.0195; 1.0 means
# nothing is pruned), and it must stay well ahead of the naive fold over
# every span in the same process (recorded 0.096). With constant gaps every span ties its shifted cut and nothing
# prunes; the bounds may then cost at most 1.2x the naive fold
# (recorded 0.64).
check "curves.pruned_spans_scanned_frac" "$(jq .pruned_spans.scanned_frac BENCH_curves.json)" "<=" 0.06
check "curves.pruned_spans_blocked_over_naive" "$(jq .pruned_spans.blocked_over_naive BENCH_curves.json)" "<=" 0.7
check "curves.constant_spans_pruned_over_unpruned" "$(jq .pruned_spans.constant_pruned_over_unpruned BENCH_curves.json)" "<=" 1.2
# One 1 000-step pause among 20 000 unit steps: both kernels must keep
# proving the blocks that miss it tied (counts: recorded 0.0021 for the
# u64 maxima at k_max 23 and 0.0032 for the maximal spans at k_max 24;
# 0.65 and 0.35 when a group's seed missed the pause).
check "curves.pause_windows_scanned_frac" "$(jq .pause.windows_scanned_frac BENCH_curves.json)" "<=" 0.01
check "curves.pause_spans_scanned_frac" "$(jq .pause.spans_scanned_frac BENCH_curves.json)" "<=" 0.01
# Thread-scaling ratios need real cores behind them: on <=2-core runners
# the parallel path fights the measurement harness for the machine and
# the floor flakes without any code regression. Guard it on host width
# instead of asserting unconditionally.
if [ "$(nproc)" -ge 4 ]; then
    # Multi-core guard: the work-stealing pool must turn 4 cores into at
    # least a 2x pruned-sweep speedup over 1 thread.
    check "sweep.speedup_at_4"        "$(jq .sweep.speedup_at_4 BENCH_sweep.json)" ">=" 2.0
else
    echo "SKIPPED sweep.speedup_at_4 (nproc $(nproc) < 4: no 4-thread rung on this host)"
fi
check "curves.append_over_rebuild"    "$(jq .append_one_gop.append_over_rebuild BENCH_curves.json)" "<=" 0.25
# Envelope monitor on an envelope almost every window breaks (k = 64):
# once the violation store is full, violating batches are counted in
# bulk, so checking may cost at most 4x the unbound measuring scan over
# the same stream (recorded 2.2-2.4; replaying those batches event by event
# reads 62.5).
check "curves.monitor_violating_over_clean" "$(jq .monitor_violating.violating_over_clean BENCH_curves.json)" "<=" 4.0

# Lazy curve algebra: composing a 32-stage tandem service chain on the
# streaming path must allocate at least 5x fewer times than the eager
# fold (recorded 5.9x). Allocation counts are deterministic — same
# inputs, same single-threaded code path — so this guard is exact, not
# noise-bound, and any regression is a real one.
check "curves.lazy_alloc_ratio"       "$(jq .lazy_tandem_32.alloc_ratio BENCH_curves.json)" ">=" 5.0

# Wire format: the lenient (resync-capable) reader must stay within 50%
# of the strict reader on a *clean* stream — graceful degradation is
# paid for only when frames are actually damaged. A ratio of two decodes
# of the same bytes in the same process, so host speed cancels out.
# Recorded value sits at 1.01-1.04.
check "wire.lenient_overhead"         "$(jq .wire.lenient_overhead_vs_strict BENCH_curves.json)" "<=" 1.5
# Frame checksum: slicing-by-16 CRC32 must stay at least 3x the bytewise
# loop it replaced (`wcm_bench::legacy::crc32_bytewise`), both timed on
# the same stream in the same process. Recorded 5.2-5.3; a fall back to
# one lookup per byte reads ~1.
check "wire.crc_speedup"              "$(jq .wire.crc_speedup_vs_bytewise BENCH_curves.json)" ">=" 3.0

# Sweep engine: pruned+threaded points/s must stay clearly ahead of the
# exhaustive sequential sweep, and the heap-free simulator hot path must
# stay clearly ahead of the legacy heap loop (ns/event).
check "sweep.points_per_s_speedup"    "$(jq .sweep.speedup_par_pruned_vs_seq_unpruned BENCH_sweep.json)" ">=" 2.0

# Sweep pruning: the share of the 714-point case-study grid the analytic
# pre-pass leaves to the simulator. An exact count (same verdicts on any
# host), so any move is a change in what the certificates decide. The
# departure-replay overflow certificate leaves 12 points (0.0168); the
# gamma-l certificate it replaced left 33 (0.0462).
check "sweep.simulated_frac"          "$(jq .sweep.simulated_frac BENCH_sweep.json)" "<=" 0.025
check "sweep.simulator_speedup"       "$(jq .simulator.speedup BENCH_sweep.json)" ">=" 3.0

# Overflow policies: on one overloaded point at capacity 6480 (the FIFO
# full on almost every push), priority eviction must cost at most twice
# a blocking write per event. The per-class FIFO makes every eviction
# O(1) (recorded 0.98); a victim search that rescans the queue costs
# O(capacity) per push and reads ~54 here.
check "simulator.drop_priority_over_backpressure" "$(jq .simulator.drop_priority_over_backpressure BENCH_sweep.json)" "<=" 2.0

# Streaming result pipeline: growing the grid 10x (100k -> 1M cells)
# must leave the streaming path's peak allocator bytes flat — that is
# the constant-memory contract of run_sweep_streaming. Peak bytes are
# deterministic (same single-threaded allocation sequence), so the 1.5
# bound is pure headroom over the recorded 1.00. The materializing
# ratio is asserted too: if it ever stops growing with the grid, the
# guard is no longer measuring a real materialization to stream against.
check "sweep.stream_peak_ratio"       "$(jq .stream.peak_ratio_10x BENCH_sweep.json)" "<=" 1.5
check "sweep.materialize_peak_ratio"  "$(jq .stream.materialize_peak_ratio_10x BENCH_sweep.json)" ">=" 4.0

# Frontier bisection: must locate the full sweep's Pareto frontier
# exactly while deciding at most a quarter of the grid's cells. Both
# properties are thread- and load-independent, so they hold on any host.
check "frontier.identical"            "$(jq '.frontier.identical | if . then 1 else 0 end' BENCH_sweep.json)" "==" 1
check "frontier.bisect_fraction"      "$(jq .frontier.bisect_fraction BENCH_sweep.json)" "<=" 0.25

# Observability: the live MemRecorder must cost < 3% on the sweep hot
# path (median paired ratio, interleaved at single-sweep granularity so
# the bound holds on shared single-core runners; recorded values sit at
# 0-2.6% with a ~1% true floor — see EXPERIMENTS.md §E12). The disabled
# gate is pinned separately by the byte-identity checks in obs_smoke.sh.
check "obs.recorder_overhead"         "$(jq .enabled.overhead_median_ratio BENCH_obs.json)" "<=" 1.03

echo "perf guard: all checks passed"
