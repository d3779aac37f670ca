//! End-to-end tests of the `wcm-cli` binary.

use std::io::Write;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wcm-cli"))
}

fn tmp_file(name: &str, content: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wcm-cli-it-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&p).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    p
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("subcommands"));
    assert!(text.contains("curves"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("usage"));
}

#[test]
fn usage_errors_print_one_pointer_line_not_the_help_text() {
    let dem = tmp_file("usage-pointer-demands.txt", "5\n7\n3\n9\n");
    for args in [
        vec!["frobnicate"],
        vec!["curves", "--demands", dem.to_str().unwrap(), "--k", "4", "--bogus", "x"],
        vec!["sweep", "--pe2-mhz", "5", "--capacities", "0", "--k", "4"],
        // Options that no longer exist, and combinations that would
        // silently ignore an option.
        vec!["sweep", "--pe2-mhz", "5", "--capacities", "4", "--stream", "on"],
        vec!["sweep", "--pe2-mhz", "5", "--capacities", "4", "--frontier", "dense"],
        vec!["sweep", "--pe2-mhz", "5", "--capacities", "4", "--cert-depth", "400"],
        vec!["sweep", "--pe2-mhz", "5", "--capacities", "4", "--frontier", "bisect", "--csv", "x"],
        vec!["sweep", "--merge", "x.wcmt", "--threads", "2"],
        vec!["sweep", "--merge", "x.wcmt", "--seeds", "5"],
        vec!["sweep", "--pe2-mhz", "5", "--capacities", "4", "--out-wcmt", "x.wcmt"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.lines().count() <= 3, "{args:?}: {err}");
        assert!(err.contains("`wcm-cli help`"), "{args:?}: {err}");
    }
    std::fs::remove_file(dem).ok();
}

#[test]
fn curves_from_demand_file() {
    let p = tmp_file("demands.txt", "5 1 1 5 1 1 5 1\n");
    let out = cli()
        .args(["curves", "--demands", p.to_str().unwrap(), "--k", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // k=1 row: γᵘ=5, γˡ=1, lines 5 and 1.
    assert!(text.lines().any(|l| l == "1 5 1 5 1"), "{text}");
    // k=4 row: worst window 5+1+1+5 = 12.
    assert!(text.lines().any(|l| l.starts_with("4 12 ")), "{text}");
    std::fs::remove_file(p).ok();
}

#[test]
fn curves_closure_reports_convergence() {
    // At k=1 the lifted curve is an affine leaky bucket (burst gamma_u(1),
    // rate wcet) — sub-additive already, so the closure reaches its
    // fixpoint on the first iteration.
    let p = tmp_file("demands-closure-flat.txt", "5 5 5 5 5 5\n");
    let out = cli()
        .args([
            "curves",
            "--demands",
            p.to_str().unwrap(),
            "--k",
            "1",
            "--closure",
            "16",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().any(|l| l == "closure_iterations 1"), "{text}");
    assert!(text.lines().any(|l| l == "closure_converged true"), "{text}");
    // The closure of a sub-additive curve is the curve itself.
    assert!(text.lines().any(|l| l == "1 5"), "{text}");
    std::fs::remove_file(p).ok();
}

#[test]
fn curves_closure_surfaces_truncation() {
    // Bursty demand whose long-run rate (7 cycles per 3 events) is far
    // below its wcet tail: every iteration keeps refining the closure
    // further out, so truncation at --closure N must be reported, not
    // silently returned as if converged.
    let p = tmp_file("demands-closure-burst.txt", "5 1 1 5 1 1 5 1\n");
    let out = cli()
        .args([
            "curves",
            "--demands",
            p.to_str().unwrap(),
            "--k",
            "4",
            "--closure",
            "8",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().any(|l| l == "closure_iterations 8"), "{text}");
    assert!(text.lines().any(|l| l == "closure_converged false"), "{text}");
    std::fs::remove_file(p).ok();
}

#[test]
fn polling_matches_fig2_values() {
    let out = cli()
        .args([
            "polling", "--period", "1", "--theta-min", "3", "--theta-max", "5", "--ep",
            "10", "--ec", "2", "--k", "6",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().any(|l| l == "6 36 20"), "{text}");
}

#[test]
fn fmin_reports_savings() {
    let d = tmp_file("d.txt", "5 1 1 5 1 1 5 1\n");
    let t = tmp_file("t.txt", "0.0 1.0 2.0 3.0 4.0 5.0 6.0 7.0\n");
    let out = cli()
        .args([
            "fmin",
            "--times",
            t.to_str().unwrap(),
            "--demands",
            d.to_str().unwrap(),
            "--buffer",
            "2",
            "--k",
            "6",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("f_min_workload_hz"));
    assert!(text.contains("savings_percent"));
    std::fs::remove_file(d).ok();
    std::fs::remove_file(t).ok();
}

#[test]
fn mpeg_list_names_all_clips() {
    let out = cli().args(["mpeg", "--clip", "list"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 14);
    assert!(text.contains("stress_chase"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = cli()
        .args(["curves", "--demands", "/nonexistent/x.txt", "--k", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(3)); // input error
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"));
}

#[test]
fn malformed_trace_names_file_line_and_token() {
    let p = tmp_file("bad-demands.txt", "# header\n10 20\n30 oops\n");
    let out = cli()
        .args(["curves", "--demands", p.to_str().unwrap(), "--k", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(":3:"), "{err}"); // 1-indexed offending line
    assert!(err.contains("`oops`"), "{err}");
    std::fs::remove_file(p).ok();
}

#[test]
fn usage_errors_exit_2() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args([
            "faults", "--clip", "newscast", "--gops", "1", "--pe1-mhz", "60", "--pe2-mhz",
            "340", "--policy", "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("backpressure|reject|drop-priority"), "{err}");
}

#[test]
fn faults_clean_run_is_violation_free() {
    let out = cli()
        .args([
            "faults", "--clip", "newscast", "--gops", "1", "--pe1-mhz", "60", "--pe2-mhz",
            "340", "--k", "16",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("monitor_violations 0"), "{text}");
    // The curve was measured on this very clip, so some window is tight.
    assert!(text.contains("min_upper_slack_cycles 0"), "{text}");
}

#[test]
fn faults_spike_trips_the_monitor_with_exit_4() {
    let args = [
        "faults", "--clip", "newscast", "--gops", "1", "--pe1-mhz", "60", "--pe2-mhz", "340",
        "--k", "16", "--seed", "7", "--inject", "spike:start=100,len=50,factor=300",
    ];
    let out = cli().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(4)); // violations are exit 4
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("violation offset="), "{text}");
    assert!(text.contains("spiked=50"), "{text}");
    // Seeded runs are reproducible bit-for-bit.
    let again = cli().args(args).output().unwrap();
    assert_eq!(text.as_bytes(), again.stdout.as_slice());
}

/// Paths for one test's artifacts, removed on drop.
struct Artifacts {
    paths: Vec<std::path::PathBuf>,
}

impl Artifacts {
    fn new(test: &str, names: &[&str]) -> Self {
        let paths = names
            .iter()
            .map(|n| {
                let mut p = std::env::temp_dir();
                p.push(format!("wcm-cli-it-{}-{test}-{n}", std::process::id()));
                p
            })
            .collect();
        Artifacts { paths }
    }

    fn path(&self, i: usize) -> &str {
        self.paths[i].to_str().unwrap()
    }
}

impl Drop for Artifacts {
    fn drop(&mut self) {
        for p in &self.paths {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Golden round-trip: every artifact `sweep` emits must parse with the
/// strict in-repo readers, both in-process and via `validate`.
#[test]
fn sweep_artifacts_round_trip_through_strict_readers_and_validate() {
    let art = Artifacts::new("roundtrip", &["json", "csv", "trace", "metrics"]);
    let out = cli()
        .args([
            "sweep", "--clips", "newscast", "--gops", "1", "--pe2-mhz", "2,20,340",
            "--capacities", "4,400", "--threads", "2",
            "--json", art.path(0), "--csv", art.path(1),
            "--trace-out", art.path(2), "--metrics-out", art.path(3),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // In-process strict parses.
    let json = std::fs::read_to_string(art.path(0)).unwrap();
    let report = wcm_obs::json::parse(&json).expect("sweep JSON parses strictly");
    let points = report.get("points").and_then(|p| p.as_array()).unwrap();
    assert_eq!(points.len(), 6, "3 frequencies x 2 capacities");
    let csv = std::fs::read_to_string(art.path(1)).unwrap();
    let rows = wcm_obs::csv::parse_table(&csv).expect("sweep CSV parses strictly");
    assert_eq!(rows.len(), points.len() + 1);
    assert_eq!(rows[0][0], "clip");

    // The trace is a chrome://tracing document with the sweep's spans.
    let trace = std::fs::read_to_string(art.path(2)).unwrap();
    let t = wcm_obs::json::parse(&trace).expect("trace parses strictly");
    let events = t.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"sweep.run"), "{names:?}");
    assert!(names.contains(&"sweep.clip_analysis"), "{names:?}");

    // The metrics summary accounts for every grid point.
    let metrics = std::fs::read_to_string(art.path(3)).unwrap();
    let m = wcm_obs::json::parse(&metrics).expect("metrics parse strictly");
    let counters = m.get("counters").and_then(|c| c.as_object()).unwrap();
    assert_eq!(
        counters.get("sweep.points").and_then(|v| v.as_f64()),
        Some(points.len() as f64)
    );

    // And `validate` agrees on all four.
    let out = cli()
        .args([
            "validate", "--json", art.path(0), "--csv", art.path(1),
            "--trace", art.path(2), "--metrics", art.path(3),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().filter(|l| l.ends_with("ok") || l.contains(" ok (")).count(), 4);

    // `serve` splits a session's work into its window scan, the ᾱ query
    // and eq. 9, each under its own span.
    let served = Artifacts::new("roundtrip-serve", &["d.txt", "s.wcmt", "trace"]);
    std::fs::write(served.path(0), "5 1 1 1 5 1 1 1 5 1 1 1 5 1 1 1\n").unwrap();
    let out = cli()
        .args(["trace", "encode", "--demands", served.path(0)])
        .args(["--out", served.path(1)])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let out = cli()
        .args(["serve", "--tail", served.path(1), "--k", "4"])
        .args(["--refresh", "4", "--idle-exit", "on"])
        .args(["--trace-out", served.path(2)])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let trace = std::fs::read_to_string(served.path(2)).unwrap();
    let t = wcm_obs::json::parse(&trace).expect("trace parses strictly");
    let events = t.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for span in ["serve.scan", "serve.alpha", "serve.eq9"] {
        assert!(names.contains(&span), "{span} missing from {names:?}");
    }
}

/// Every run streams its artifacts through the row sinks. Their bytes
/// must equal the in-memory `SweepReport::to_json`/`to_csv` of the same
/// spec at any thread count, and three merged shards must reproduce
/// them, stdout included.
#[test]
fn sweep_artifacts_equal_the_in_memory_report() {
    let art = Artifacts::new(
        "in-memory",
        &["1.json", "1.csv", "2.json", "2.csv", "s0.wcmt", "s1.wcmt", "s2.wcmt", "m.json", "m.csv"],
    );
    let grid = [
        "sweep", "--clips", "newscast", "--gops", "1", "--pe2-mhz", "200,340",
        "--capacities", "16,400", "--policies", "backpressure,reject", "--seeds", "clean,7",
        "--inject", "drift:pe=2,start=200,len=2000,factor=150;stall:pe=2,at=500,extra=0.01",
        "--k", "600",
    ];
    let params = wcm_mpeg::VideoParams::main_profile_main_level().unwrap();
    let profile = wcm_mpeg::profile::standard_clips()
        .into_iter()
        .find(|c| c.name == "newscast")
        .unwrap();
    let clips = [wcm_mpeg::Synthesizer::new(params).generate(&profile, 1).unwrap()];
    let spec = wcm_sim::SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz: [200.0, 340.0].map(|f| f * 1e6).to_vec(),
        capacities: vec![16, 400],
        policies: vec![
            wcm_sim::OverflowPolicy::Backpressure,
            wcm_sim::OverflowPolicy::Reject,
        ],
        seeds: vec![None, Some(7)],
        injectors: vec![
            wcm_sim::Injector::ClockDrift {
                pe: wcm_sim::ProcessingElement::Pe2,
                start: 200,
                len: 2000,
                factor_pct: 150,
            },
            wcm_sim::Injector::Stall {
                pe: wcm_sim::ProcessingElement::Pe2,
                at: 500,
                extra_s: 0.01,
            },
        ],
        k_max: 600,
        mode: wcm_events::window::WindowMode::Exact,
        cert_depth: 0,
        prune: true,
    };
    let report = wcm_sim::run_sweep(&clips, &spec, wcm_par::Parallelism::Seq).unwrap();
    // Some rows must carry a digest through the shards (the replay
    // decides every point of this grid, so they are `replay_ok`).
    let digests = report.stats.simulated + report.stats.replayed;
    assert!(digests > 0 && !report.pareto.is_empty(), "{:?}", report.stats);

    let mut stdout = Vec::new();
    for (threads, json, csv) in [("1", 0, 1), ("2", 2, 3)] {
        let out = cli()
            .args(grid)
            .args(["--threads", threads, "--json", art.path(json), "--csv", art.path(csv)])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(std::fs::read_to_string(art.path(json)).unwrap(), report.to_json());
        assert_eq!(std::fs::read_to_string(art.path(csv)).unwrap(), report.to_csv());
        stdout.push(out.stdout);
    }
    assert_eq!(stdout[0], stdout[1], "stdout differs between --threads 1 and 2");

    for i in 0..3 {
        let shard = format!("{i}/3");
        let out = cli()
            .args(grid)
            .args(["--shard", &shard, "--out-wcmt", art.path(4 + i)])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let shards = [art.path(4), art.path(5), art.path(6)].join(",");
    let out = cli()
        .args(["sweep", "--merge", &shards, "--json", art.path(7), "--csv", art.path(8)])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read_to_string(art.path(7)).unwrap(), report.to_json());
    assert_eq!(std::fs::read_to_string(art.path(8)).unwrap(), report.to_csv());
    let merged = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        merged.strip_prefix("merged_shards 3\n").map(str::as_bytes),
        Some(stdout[0].as_slice())
    );
}

/// A run that fails leaves neither report (nor a shard stream) behind:
/// the artifacts are staged in side files that only a successful run
/// moves into place.
#[test]
fn failed_sweeps_leave_no_artifacts() {
    let art = Artifacts::new("failed", &["json", "csv", "clip.wcmt", "shard.wcmt"]);
    std::fs::write(art.path(2), b"WCMT but not a stream").unwrap();
    let grid = ["sweep", "--gops", "1", "--pe2-mhz", "2,340", "--capacities", "4"];
    let cases: [(&[&str], i32); 3] = [
        (&["--clips", "newscast", "--k", "0"], 2),
        (&["--clips", "no_such_clip"], 2),
        (&["--clips", art.path(2)], 3),
    ];
    for (args, code) in cases {
        let out = cli()
            .args(grid)
            .args(args)
            .args(["--json", art.path(0), "--csv", art.path(1)])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        let parts = [
            format!("{}.rows.part", art.path(0)),
            format!("{}.part", art.path(0)),
            format!("{}.part", art.path(1)),
        ];
        for path in [art.path(0), art.path(1)].into_iter().chain(parts.iter().map(String::as_str)) {
            assert!(!std::path::Path::new(path).exists(), "{args:?} left {path}");
        }
    }
    // A shard stream is staged the same way.
    let out = cli()
        .args(grid)
        .args(["--clips", "newscast", "--k", "0", "--shard", "0/1", "--out-wcmt", art.path(3)])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!std::path::Path::new(art.path(3)).exists(), "a failed shard left its stream");
}

/// Observability must not perturb results: reports with and without the
/// recorder are byte-identical.
#[test]
fn sweep_reports_are_byte_identical_with_and_without_recorder() {
    let art = Artifacts::new("bitident", &["json-off", "json-on", "trace"]);
    let base = [
        "sweep", "--clips", "newscast", "--gops", "1", "--pe2-mhz", "2,340",
        "--capacities", "4", "--threads", "2",
    ];
    let off = cli().args(base).args(["--json", art.path(0)]).output().unwrap();
    assert_eq!(off.status.code(), Some(0));
    let on = cli()
        .args(base)
        .args(["--json", art.path(1), "--trace-out", art.path(2)])
        .output()
        .unwrap();
    assert_eq!(on.status.code(), Some(0));
    assert_eq!(
        std::fs::read(art.path(0)).unwrap(),
        std::fs::read(art.path(1)).unwrap(),
        "recorder must not change report bytes"
    );
    assert_eq!(off.stdout, on.stdout);
}

#[test]
fn validate_rejects_malformed_artifacts() {
    // Bare NaN is exactly the old emission bug; the validator must name
    // the file, line and offending token with exit code 3.
    let p = tmp_file("bad.json", "{\"stats\": {},\n \"points\": [NaN],\n \"pareto\": []}\n");
    let out = cli().args(["validate", "--json", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(":2:"), "{err}");
    assert!(err.contains("NaN"), "{err}");
    std::fs::remove_file(p).ok();

    // A ragged CSV row is an error too.
    let p = tmp_file("bad.csv", "a,b\n1,2,3\n");
    let out = cli().args(["validate", "--csv", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    std::fs::remove_file(p).ok();

    // A structurally valid JSON document that is not a trace.
    let p = tmp_file("not-trace.json", "{\"foo\": 1}\n");
    let out = cli().args(["validate", "--trace", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("traceEvents"), "{err}");
    std::fs::remove_file(p).ok();

    // No artifacts at all is a usage error.
    let out = cli().arg("validate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// `trace encode` → `verify` → `decode` round-trip: the decoded text
/// traces match the originals value-for-value, everything exits 0.
#[test]
fn trace_round_trips_text_and_binary() {
    let art = Artifacts::new("trace-rt", &["d.txt", "t.txt", "s.wcmt", "d-out.txt", "t-out.txt"]);
    std::fs::write(art.path(0), "5 1 1 5 1 1 5 1\n").unwrap();
    std::fs::write(art.path(1), "0.0 0.5\n1.0 1.5 2.0 2.5 3.0 3.5\n").unwrap();

    let out = cli()
        .args([
            "trace", "encode", "--demands", art.path(0), "--times", art.path(1),
            "--name", "rt", "--out", art.path(2),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli().args(["trace", "verify", "--in", art.path(2)]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("8 demand(s)"), "{text}");

    let out = cli()
        .args([
            "trace", "decode", "--in", art.path(2),
            "--out-demands", art.path(3), "--out-times", art.path(4),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("name rt"), "{text}");
    assert!(text.contains("truncated false clean_end true"), "{text}");

    let demands = std::fs::read_to_string(art.path(3)).unwrap();
    let vals: Vec<u64> = demands.split_whitespace().map(|t| t.parse().unwrap()).collect();
    assert_eq!(vals, vec![5, 1, 1, 5, 1, 1, 5, 1]);
    let times = std::fs::read_to_string(art.path(4)).unwrap();
    let vals: Vec<f64> = times.split_whitespace().map(|t| t.parse().unwrap()).collect();
    assert_eq!(vals, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);

    // The binary file feeds straight back into analysis subcommands.
    let out = cli().args(["curves", "--demands", art.path(2), "--k", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().any(|l| l == "1 5 1 5 1"), "{text}");
}

/// The `trace` exit-code contract: 0 clean, 2 empty, 3 malformed or
/// truncated, 4 partial decode under skip-corrupt.
#[test]
fn trace_exit_codes_follow_the_contract() {
    let art = Artifacts::new("trace-exit", &["d.txt", "s.wcmt", "cut.wcmt", "bad.wcmt", "empty.wcmt"]);
    std::fs::write(art.path(0), "7 3 9 2 8 4 6 1\n").unwrap();
    let out = cli()
        .args(["trace", "encode", "--demands", art.path(0), "--out", art.path(1)])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let clean = std::fs::read(art.path(1)).unwrap();

    // 2: a stream that decodes fine but carries no payload data.
    let enc = wcm_wire::StreamEncoder::new();
    std::fs::write(art.path(4), enc.finish()).unwrap();
    let out = cli().args(["trace", "decode", "--in", art.path(4)]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let out = cli().args(["trace", "verify", "--in", art.path(4)]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // 3: truncated mid-frame, diagnosed as file:1:byte.
    std::fs::write(art.path(2), &clean[..clean.len() - 4]).unwrap();
    let out = cli().args(["trace", "verify", "--in", art.path(2)]).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(":1:"), "{err}");
    assert!(err.contains("truncated"), "{err}");

    // 3 strict / 4 skip-corrupt: one flipped bit inside the demands frame.
    let mut bad = clean.clone();
    let at = demands_payload_byte(&bad);
    bad[at] ^= 0x10;
    std::fs::write(art.path(3), &bad).unwrap();
    let out = cli().args(["trace", "decode", "--in", art.path(3)]).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["trace", "decode", "--in", art.path(3), "--policy", "skip-corrupt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("partial decode"), "{err}");

    // Usage errors stay 2: bad action, bad policy.
    let out = cli().args(["trace", "transmogrify", "--in", art.path(1)]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args(["trace", "decode", "--in", art.path(1), "--policy", "lax"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// Absolute offset of a byte inside the first demands frame's payload.
fn demands_payload_byte(bytes: &[u8]) -> usize {
    let mut r = wcm_wire::FrameReader::new(bytes).unwrap();
    while let Some(f) = r.next_strict().unwrap() {
        if f.kind == wcm_wire::frame::KIND_DEMANDS {
            return f.payload_offset + f.payload.len() / 2;
        }
    }
    panic!("no demands frame in stream");
}

/// Satellite regression: truncated JSON, CSV and `.wcmt` inputs all exit 3
/// from `validate` with a `file:line:byte` diagnostic.
#[test]
fn validate_diagnoses_truncated_files_with_line_and_byte() {
    // JSON cut off mid-document (inside the second line).
    let p = tmp_file("cut.json", "{\"stats\": {},\n \"points\": [1, 2");
    let out = cli().args(["validate", "--json", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(":2:"), "{err}");
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_file(p).ok();

    // CSV whose last record was cut short.
    let content = "clip,mhz,cap\nnewscast,340,4\nnewscast,2";
    let p = tmp_file("cut.csv", content);
    let out = cli().args(["validate", "--csv", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(&format!(":3:{}", content.len())), "{err}");
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_file(p).ok();

    // Binary stream cut mid-frame: line is 1, byte points at the cut.
    let bytes = wcm_wire::encode_demands("cut", &[9, 9, 9]);
    let p = tmp_file("cut.wcmt", "");
    std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
    let out = cli().args(["validate", "--wcmt", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(":1:"), "{err}");
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_file(p).ok();

    // An intact stream validates with exit 0.
    let p = tmp_file("ok.wcmt", "");
    std::fs::write(&p, &bytes).unwrap();
    let out = cli().args(["validate", "--wcmt", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(p).ok();
}

/// `sweep --clips` accepts `.wcmt` clip streams and produces the same
/// report as synthesizing the same clip from its profile name.
#[test]
fn sweep_accepts_wcmt_clip_streams() {
    let art = Artifacts::new("sweep-wcmt", &["clip.wcmt", "from-name.json", "from-wire.json"]);
    let params = wcm_mpeg::VideoParams::main_profile_main_level().unwrap();
    let profile = wcm_mpeg::profile::standard_clips()
        .into_iter()
        .find(|c| c.name == "newscast")
        .unwrap();
    let clip = wcm_mpeg::Synthesizer::new(params).generate(&profile, 1).unwrap();
    std::fs::write(art.path(0), wcm_mpeg::wire::encode_clip(&clip)).unwrap();

    let base = ["sweep", "--gops", "1", "--pe2-mhz", "2,340", "--capacities", "4", "--threads", "2"];
    let by_name = cli()
        .args(base).args(["--clips", "newscast", "--json", art.path(1)])
        .output()
        .unwrap();
    assert_eq!(by_name.status.code(), Some(0), "{}", String::from_utf8_lossy(&by_name.stderr));
    let by_wire = cli()
        .args(base).args(["--clips", art.path(0), "--json", art.path(2)])
        .output()
        .unwrap();
    assert_eq!(by_wire.status.code(), Some(0), "{}", String::from_utf8_lossy(&by_wire.stderr));
    assert_eq!(
        std::fs::read(art.path(1)).unwrap(),
        std::fs::read(art.path(2)).unwrap(),
        "a decoded clip stream must sweep bit-identically to the synthesized clip"
    );

    // A truncated clip stream is an input error, not a crash.
    let bytes = std::fs::read(art.path(0)).unwrap();
    std::fs::write(art.path(0), &bytes[..bytes.len() / 2]).unwrap();
    let out = cli()
        .args(base).args(["--clips", art.path(0)])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn faults_injector_spec_errors_are_usage_errors() {
    let out = cli()
        .args([
            "faults", "--clip", "newscast", "--gops", "1", "--pe1-mhz", "60", "--pe2-mhz",
            "340", "--inject", "warp:pm=5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown injector"), "{err}");
}

/// Runs `serve` on an empty tail with one oversized option and checks it
/// is a usage error naming that option, raised before any work.
fn assert_serve_rejects(option: &str, value: &str, file: &str) {
    let tail = tmp_file(file, "");
    let out = cli()
        .args(["serve", "--tail", tail.to_str().unwrap(), "--max-rounds", "1", option, value])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{option} {value}: {out:?}");
    assert!(out.stdout.is_empty(), "{option} {value} printed output before failing");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(&format!("`{option}`")), "{option} {value}: {err}");
    std::fs::remove_file(tail).ok();
}

#[test]
fn serve_rejects_a_thread_count_above_the_pool_cap() {
    assert_serve_rejects("--threads", "100000000000", "serve-threads-cap.wcmt");
    assert_serve_rejects("--threads", "257", "serve-threads-257.wcmt");
}

#[test]
fn serve_rejects_a_shard_count_above_the_pool_cap() {
    assert_serve_rejects("--shards", "100000000000000", "serve-shards-cap.wcmt");
    assert_serve_rejects("--shards", "257", "serve-shards-257.wcmt");
}

/// A window sum past `u64::MAX` costs its session the curve, never the
/// service: that session rejects at an unbounded frequency, a calm
/// neighbour is unaffected, and the drain exits 0.
#[test]
fn serve_rejects_a_session_whose_window_sums_overflow() {
    let art = Artifacts::new(
        "serve-overflow",
        &["huge.txt", "calm.txt", "huge.wcmt", "calm.wcmt", "snap"],
    );
    std::fs::write(art.path(0), "18446744073709551615 1 2 3 4 5 6 7 8 9\n").unwrap();
    std::fs::write(art.path(1), "5 1 1 1 5 1 1 1 5 1\n").unwrap();
    for (text, wcmt, name) in [(0, 2, "huge"), (1, 3, "calm")] {
        let out = cli()
            .args(["trace", "encode", "--demands", art.path(text)])
            .args(["--name", name, "--out", art.path(wcmt)])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{err}");
    }
    let tails = format!("{},{}", art.path(2), art.path(3));
    let out = cli()
        .args(["serve", "--tail", &tails, "--k", "4", "--refresh", "4"])
        .args(["--idle-exit", "on", "--snapshots-out", art.path(4)])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let snap = std::fs::read_to_string(art.path(4)).unwrap();
    let line = |name: &str| {
        snap.lines()
            .find(|l| l.contains(&format!("/{name}\"")))
            .unwrap_or_else(|| panic!("no {name} session in {snap}"))
    };
    let huge = line("huge");
    assert!(huge.contains("\"events\":10,"), "{huge}");
    let rejected = "\"verdict\":\"reject\",\"f_min_hz\":null";
    assert!(huge.contains(rejected), "{huge}");
    let calm = line("calm");
    assert!(calm.contains("\"wcet\":5,\"gamma_u_k\":8,"), "{calm}");
    assert!(calm.contains("\"verdict\":\"admit\""), "{calm}");
}

/// Demands whose window sums pass `u64::MAX` are an analysis error
/// (exit 1, naming the overflow) for `curves` and `fmin`, from text and
/// from `.wcmt` — never a panic.
#[test]
fn window_sums_past_u64_max_exit_1_instead_of_panicking() {
    let art = Artifacts::new("sum-overflow", &["big.txt", "big.wcmt", "times.txt"]);
    std::fs::write(art.path(0), "18446744073709551615\n1\n2\n3\n").unwrap();
    std::fs::write(art.path(2), "0.0 1.0 2.0 3.0\n").unwrap();
    let out = cli()
        .args(["trace", "encode", "--demands", art.path(0), "--name", "big"])
        .args(["--out", art.path(1)])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    for demands in [art.path(0), art.path(1)] {
        let curves = cli()
            .args(["curves", "--demands", demands, "--k", "2"])
            .output()
            .unwrap();
        let fmin = cli()
            .args(["fmin", "--times", art.path(2), "--demands", demands])
            .args(["--buffer", "2", "--k", "2"])
            .output()
            .unwrap();
        for out in [curves, fmin] {
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{err}");
            assert!(err.contains("window sum exceeds u64::MAX"), "{err}");
        }
    }
}

#[test]
fn unknown_options_are_usage_errors_before_any_work() {
    let dem = tmp_file("unknown-opt-demands.txt", "5\n7\n3\n9\n");
    let dem = dem.to_str().unwrap();
    let out_file = std::env::temp_dir()
        .join(format!("wcm-cli-it-{}-unknown-opt.wcmt", std::process::id()));
    let out_path = out_file.to_str().unwrap();
    let cases: Vec<Vec<&str>> = vec![
        vec!["curves", "--demands", dem, "--k", "4", "--thread", "2", "--bogus", "yes"],
        vec!["curves", "--demands", dem, "--k", "4", "--bogus", "x"],
        vec!["arrival", "--bogus", "x"],
        vec!["fmin", "--bogus", "x"],
        vec!["polling", "--bogus", "x"],
        vec!["mpeg", "--clip", "newscast", "--gops", "1", "--bogus", "x"],
        vec!["pipeline", "--bogus", "x"],
        vec!["faults", "--bogus", "x"],
        vec!["sweep", "--bogus", "x"],
        vec!["serve", "--bogus", "x"],
        vec!["serve", "--tail", dem, "--fast-scan", "on"],
        vec!["serve", "--tail", dem, "--times-window", "8"],
        vec!["validate", "--bogus", "x"],
        vec!["trace", "encode", "--out", out_path, "--demands", dem, "--bogus", "x"],
        vec!["trace", "decode", "--bogus", "x"],
        vec!["trace", "verify", "--bogus", "x"],
        // `--threads` selects nothing on the subcommands that run no
        // `wcm-par` map, so they refuse it like any unknown option.
        vec!["curves", "--demands", dem, "--k", "4", "--threads", "2"],
        vec!["arrival", "--threads", "2"],
        vec!["fmin", "--threads", "2"],
        vec!["faults", "--clip", "newscast", "--gops", "1", "--threads", "2"],
    ];
    for args in &cases {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output before failing");
        let err = String::from_utf8(out.stderr).unwrap();
        let bad = if args.contains(&"--thread") {
            "--thread"
        } else if args.contains(&"--fast-scan") {
            "--fast-scan"
        } else if args.contains(&"--times-window") {
            "--times-window"
        } else if args.contains(&"--threads") {
            "--threads"
        } else {
            "--bogus"
        };
        assert!(err.contains(&format!("unknown option `{bad}`")), "{args:?}: {err}");
    }
    // The rejected encode wrote nothing.
    assert!(!out_file.exists());
    std::fs::remove_file(dem).ok();
}

#[test]
fn stride_zero_is_a_usage_error() {
    let dem = tmp_file("stride-zero-demands.txt", "5\n7\n3\n9\n5\n7\n3\n9\n5\n7\n3\n");
    let dem = dem.to_str().unwrap();
    let cases: [&[&str]; 3] = [
        &["curves", "--k", "10", "--stride", "0", "--demands", dem],
        &["curves", "--k", "10", "--exact-upto", "2", "--stride", "0", "--demands", dem],
        &[
            "sweep", "--clips", "newscast", "--gops", "1", "--pe2-mhz", "2,340", "--capacities",
            "4", "--stride", "0",
        ],
    ];
    for args in cases {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output before failing");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--stride must be at least 1"), "{args:?}: {err}");
    }
    std::fs::remove_file(dem).ok();
}

#[test]
fn strides_near_usize_max_match_any_stride_past_k() {
    // `--exact-upto 3 --stride 18446744073709551615` once panicked and
    // `… 18446744073709551614` overwrote the exact entries; every stride
    // ≥ k must print what `--stride 1000` prints.
    let values: String = (0..40u64).map(|i| format!("{}\n", (i * 7919 + 13) % 1009)).collect();
    let dem = tmp_file("huge-stride-demands.txt", &values);
    let dem = dem.to_str().unwrap();
    let curves = |stride: &str| {
        let args = ["curves", "--k", "10", "--exact-upto", "3", "--stride", stride, "--demands", dem];
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "--stride {stride}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let want = curves("1000");
    for stride in [u64::MAX, u64::MAX - 1] {
        assert_eq!(curves(&stride.to_string()), want, "--stride {stride}");
    }
    std::fs::remove_file(dem).ok();
}

/// Runs `wcm-cli` and returns its stdout, asserting exit code 0.
fn stdout_of(args: &[&str]) -> String {
    let out = cli().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

const NEWSCAST_PIPELINE: [&str; 9] = [
    "pipeline", "--clip", "newscast", "--gops", "1", "--pe1-mhz", "60", "--pe2-mhz", "340",
];

#[test]
fn pipeline_stdout_is_golden() {
    let want = "clip newscast
macroblocks 19440
max_backlog_mb 3
worst_fifo_latency_ms 0.057
pe1_busy_s 0.4347
pe2_busy_s 0.1881
pe1_stalled_s 0.0000
makespan_s 0.5259
";
    assert_eq!(stdout_of(&NEWSCAST_PIPELINE), want);
    // 64 slots never fill at 340 MHz: the bounded run prints the same.
    let bounded = [&NEWSCAST_PIPELINE[..], &["--capacity", "64"]].concat();
    assert_eq!(stdout_of(&bounded), want);
}

#[test]
fn pipeline_backpressure_stdout_is_golden() {
    let mut args = NEWSCAST_PIPELINE;
    args[8] = "150";
    let args = [&args[..], &["--capacity", "64"]].concat();
    assert_eq!(
        stdout_of(&args),
        "clip newscast
macroblocks 19440
max_backlog_mb 64
worst_fifo_latency_ms 2.262
pe1_busy_s 0.4347
pe2_busy_s 0.4263
pe1_stalled_s 0.0229
makespan_s 0.5460
"
    );
}

#[test]
fn faults_fifo_drops_stdout_is_golden() {
    let faults = |pe2_mhz: &str| {
        stdout_of(&[
            "faults", "--clip", "newscast", "--gops", "1", "--pe1-mhz", "60", "--pe2-mhz",
            pe2_mhz, "--capacity", "64", "--policy", "drop-priority", "--inject",
            "drop:pm=30;dup:pm=30;jitter:start=0,len=200,delay=0.001", "--monitor", "off",
        ])
    };
    let head = "clip newscast
seed 0
policy dropbypriority(64)
stream_macroblocks 19467
injected dropped=536 duplicated=563 corrupted=0 spiked=0 jittered=200 slowed=0
";
    assert_eq!(
        faults("340"),
        format!(
            "{head}max_backlog_mb 4
dropped_by_fifo 0
pe1_stalled_s 0.0000
makespan_s 0.5269
"
        )
    );
    // At 100 MHz the FIFO overflows and each drop is labelled by kind.
    assert_eq!(
        faults("100"),
        format!(
            "{head}max_backlog_mb 64
dropped_by_fifo 5572
dropped_kinds B=5419 P=153 I=0
pe1_stalled_s 0.0000
makespan_s 0.5295
"
        )
    );
}
