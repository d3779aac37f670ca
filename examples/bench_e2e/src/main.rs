//! `bench_e2e` — one end-to-end benchmark of the wcm flows, with
//! per-layer attribution.
//!
//! Four closed-loop, single-client, single-thread workloads (see
//! `README.md` for why each exists):
//!
//! * `analyze` — `.wcmt` bytes → γᵘ/γˡ → ᾱ → eq. 9/10 verdict, per clip;
//! * `sweep` — the pruned design-space sweep, one clip's grid per request;
//! * `serve_fanin` — `wcm serve` catching up on 10 000 short sessions;
//! * `serve_deep` — `wcm serve` over 16 long timestamped sessions.
//!
//! Every input is generated from `--seed`; each workload measures for
//! `--seconds`, checks its outputs against an untimed reference, and
//! prints its metrics by name with their units, ending with one JSON
//! line. `--trace 1` (or `--traced`) splits the time between untraced
//! and traced passes and reports the per-layer metrics instead.

mod analyze;
mod inputs;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::Better;
use wcm::obs::json::{fmt_f64, quote};
use wcm_bench::alloc::{measure, CountingAlloc, Measured};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: bench_e2e [--workload analyze|sweep|serve_fanin|serve_deep] [--seed N] \
[--seconds S] [--trace 0|1 | --traced] [--out FILE] [--set LABEL] [--commit SHA]\n\
       bench_e2e --compare FILE BASE_SET NEW_SET";

pub const WORKLOADS: [&str; 4] = ["analyze", "sweep", "serve_fanin", "serve_deep"];

/// One reported metric: name, unit, direction, and (end-to-end only)
/// the share of the baseline median it may worsen by.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; medians over passes.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.05),
];

/// Measured by the traced run; times are per request. A metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 23] = [
    layer("wire.decode_ms", "ms", Lower),
    layer("wire.decode_mb_per_s", "MB/s", Higher),
    layer("events.window_scan_ms", "ms", Lower),
    layer("core.arrival_ms", "ms", Lower),
    layer("core.sizing_ms", "ms", Lower),
    layer("analyze.self_ms", "ms", Lower),
    layer("sweep.total_ms", "ms", Lower),
    layer("sweep.clip_analysis_ms", "ms", Lower),
    layer("sweep.analytic_table_ms", "ms", Lower),
    layer("sweep.eval_ms", "ms", Lower),
    layer("sweep.pruned_frac", "ratio", Higher),
    layer("sim.ns_per_event", "ns", Lower),
    layer("par.sweep_speedup_2t", "ratio", Higher),
    layer("serve.round_ms", "ms", Lower),
    layer("serve.ingest_ms", "ms", Lower),
    layer("serve.session_ms", "ms", Lower),
    layer("serve.refresh_ms", "ms", Lower),
    layer("serve.refreshes", "count", Lower),
    layer("serve.service_self_ms", "ms", Lower),
    layer("serve.heap_bytes_per_session", "B", Lower),
    layer("serve.round_ms_p99", "ms", Lower),
    layer("alloc.calls", "count", Lower),
    layer("obs.overhead_frac", "ratio", Lower),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests per pass behind each pass's latency percentiles.
    pub requests_per_pass: usize,
    /// The traced run's recording.
    pub snapshot: Option<wcm::obs::Snapshot>,
}

impl Outcome {
    /// Count one checked operation; report it on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("bench_e2e: check failed: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `ops_per_s`, `latency_ms_p50` and `latency_ms_p90` from the
    /// request seconds of every pass, each a median over passes: host
    /// slowdowns that last a pass or two then move none of them.
    pub fn set_timing(&mut self, ops_per_pass: f64, passes: &[Vec<f64>]) {
        self.set("ops_per_s", ops_per_pass / pass_seconds(passes));
        let over_passes = |q: f64| {
            let per_pass: Vec<f64> = passes.iter().map(|p| stats::quantile(p, q)).collect();
            stats::median(&per_pass) * 1e3
        };
        self.set("latency_ms_p50", over_passes(0.5));
        self.set("latency_ms_p90", over_passes(0.9));
        self.requests_per_pass = passes.iter().map(Vec::len).min().unwrap_or(0);
    }

    /// `peak_heap_mb` and `alloc.calls` from the allocator readings of
    /// every timed request: the highest peak, and the median count (a
    /// median, so one-off lazy initialisation in the first request does
    /// not make the count depend on how many requests a run made).
    pub fn set_heap(&mut self, per_request: &[Measured]) {
        let peak = per_request.iter().map(|m| m.peak_bytes).max().unwrap_or(0);
        let calls: Vec<f64> = per_request.iter().map(|m| m.calls as f64).collect();
        self.set("peak_heap_mb", peak as f64 / 1e6);
        self.set("alloc.calls", stats::median(&calls));
    }
}

/// How a workload run is split between untraced and traced passes.
#[derive(Clone, Copy)]
pub struct Budget {
    pub untraced: Duration,
    /// `Some` for a traced run: the time given to the traced passes.
    pub traced: Option<Duration>,
}

/// Runs `pass` until `budget` has elapsed (at least once). Each pass
/// returns the seconds of the requests it timed.
pub fn timed_passes(budget: Duration, mut pass: impl FnMut() -> Vec<f64>) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass());
        if start.elapsed() >= budget {
            return passes;
        }
    }
}

/// The median over passes of the time a pass spent in its requests.
pub fn pass_seconds(passes: &[Vec<f64>]) -> f64 {
    let sums: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    stats::median(&sums)
}

/// One request under the counting allocator: its result, its seconds
/// and its allocator reading.
pub fn request<T>(f: impl FnOnce() -> T) -> (T, f64, Measured) {
    let t = Instant::now();
    let (value, m) = measure(f);
    (value, t.elapsed().as_secs_f64(), m)
}

/// Runs `f` with the in-memory span recorder on and returns what it
/// recorded alongside `f`'s result.
pub fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, wcm::obs::Snapshot) {
    let rec = wcm::obs::mem();
    rec.reset();
    wcm::obs::set_enabled(true);
    let value = f();
    wcm::obs::set_enabled(false);
    let snap = rec.snapshot();
    rec.reset();
    (value, snap)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    set: String,
    commit: String,
    compare: Option<(String, String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: None,
        set: String::new(),
        commit: String::new(),
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.traced = true,
            "--out" => a.out = Some(value()?),
            "--set" => a.set = value()?,
            "--commit" => a.commit = value()?,
            "--compare" => a.compare = Some((value()?, value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn metrics_json(out: &Outcome, defs: &[MetricDef]) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = out.metrics.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                fmt_f64(v),
                quote(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((file, base, new)) = &args.compare {
        return compare(file, base, new);
    }
    let Some(name) = args.workload.as_deref() else {
        return run_each_in_own_process();
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let budget = if args.traced {
        Budget {
            untraced: budget / 2,
            traced: Some(budget / 2),
        }
    } else {
        Budget {
            untraced: budget,
            traced: None,
        }
    };
    let out = match name {
        "analyze" => analyze::run(args.seed, budget),
        "sweep" => sweep::run(args.seed, budget),
        "serve_fanin" => serve::run(&serve::fanin(), args.seed, budget),
        _ => serve::run(&serve::deep(), args.seed, budget),
    };
    let defs: &[MetricDef] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut correct = out.failed == 0 && out.attempted > 0;
    for d in defs {
        let v = out.metrics.get(d.name).copied().unwrap_or(0.0);
        println!("{name:<12} {:<30} {v:>16.6} {}", d.name, d.unit);
    }
    println!(
        "{name:<12} checks: {} attempted, {} failed; {} requests per pass (the rule supports up to p{} per pass)",
        out.attempted,
        out.failed,
        out.requests_per_pass,
        stats::supported_tail(out.requests_per_pass).map_or("-".into(), |p| p.to_string()),
    );
    let metrics = metrics_json(&out, defs);
    if let Some(path) = &args.out {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"set\": {}, \"commit\": {}, \"nproc\": {nproc}, \"requests_per_pass\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}\n",
            quote(name),
            args.seed,
            fmt_f64(args.seconds),
            u8::from(args.traced),
            quote(&args.set),
            quote(&args.commit),
            out.requests_per_pass,
            out.attempted,
            out.failed,
        );
        if let Err(e) = append(path, &line) {
            eprintln!("bench_e2e: writing {path}: {e}");
            correct = false;
        }
        if let Some(snap) = &out.snapshot {
            let trace = format!("{path}.{name}.trace.json");
            if let Err(e) = std::fs::write(&trace, snap.to_chrome_trace()) {
                eprintln!("bench_e2e: writing {trace}: {e}");
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Without `--workload`: every workload in a fresh process of its own,
/// one after another, as a harness runs them, so no workload measures
/// on a heap another one left behind.
fn run_each_in_own_process() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: locating this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", w])
            .status();
        if let Err(e) = &status {
            eprintln!("bench_e2e: running {w}: {e}");
        }
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn append(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.sync_all()
}

/// `--compare FILE BASE NEW`: the untraced runs of two recorded sets,
/// compared per workload and end-to-end metric on their medians against
/// each metric's bound. Exits 1 on any regression or missing metric.
fn compare(file: &str, base: &str, new: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_e2e: reading {file}: {e}");
            return ExitCode::from(2);
        }
    };
    // (set, workload, metric) → values
    let mut values: BTreeMap<(String, String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = match wcm::obs::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_e2e: {file}:{}: {e}", n + 1);
                return ExitCode::from(2);
            }
        };
        let text_of = |k: &str| v.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
        if v.get("trace").and_then(|x| x.as_f64()) != Some(0.0) {
            continue;
        }
        let Some(metrics) = v.get("metrics").and_then(|m| m.as_object()) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(|x| x.as_f64()) {
                values
                    .entry((text_of("set"), text_of("workload"), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    let spread = |s: &[f64]| {
        (stats::quantile(s, 0.75) - stats::quantile(s, 0.25)) / stats::median(s).abs().max(1e-300)
    };
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", base, new, "change", "bound", "spread", "spread"
    );
    let mut ok = true;
    for w in WORKLOADS {
        for d in &END_TO_END {
            let key = |set: &str| (set.to_string(), w.to_string(), d.name.to_string());
            let (Some(a), Some(b)) = (values.get(&key(base)), values.get(&key(new))) else {
                println!("{w:<12} {:<16} missing in one of the sets", d.name);
                ok = false;
                continue;
            };
            let (ma, mb) = (stats::median(a), stats::median(b));
            let bound = d.bound.unwrap_or(0.0);
            let bad = stats::regressed(ma, mb, bound, d.better);
            ok &= !bad;
            println!(
                "{w:<12} {:<16} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>6.0}% {:>7.2}% {:>7.2}%  {}",
                d.name,
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                if bad { "REGRESSED" } else { "ok" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric table here and `BENCHMARK.json` must name the same
    /// metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = wcm::obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(defs) {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(s("name"), d.name);
                assert_eq!(s("unit"), d.unit, "{}", d.name);
                assert_eq!(s("better"), d.better.as_str(), "{}", d.name);
                assert_eq!(
                    m.get("bound").and_then(|v| v.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload sweep --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sweep"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
