//! Subcommand implementations.

use crate::args::Options;
use crate::error::CliError;
use crate::io;
use std::path::Path;
use wcm_core::curve::{LowerWorkloadCurve, UpperWorkloadCurve};
use wcm_core::polling::PollingTask;
use wcm_core::sizing;
use wcm_core::EnvelopeMonitor;
use wcm_curves::{minplus, StepCurve};
use wcm_events::window::{max_window_sums, min_spans, min_window_sums, WindowMode};
use wcm_events::Cycles;
use wcm_sim::{
    FaultPlan, FaultedWorkload, FifoConfig, Injector, OverflowPolicy, PipelineConfig,
    ProcessingElement, SimScratch,
};

/// Usage text shown by `help` and on errors.
pub const USAGE: &str = "usage: wcm-cli <subcommand> [--option value]...

subcommands:
  curves   --demands FILE --k K [--exact-upto N --stride S]
           [--closure N]
           workload curves gamma_u/gamma_l from a per-event demand trace;
           --closure N also takes the sub-additive closure of gamma_u
           (at most N min-plus iterations on the lazy streaming path)
           and reports whether it converged to a fixpoint
  arrival  --times FILE --k K
           empirical arrival staircase from sorted timestamps
  fmin     --times FILE --demands FILE --buffer B --k K
           [--exact-upto N --stride S]
           minimum clock frequency (eq. 9 vs eq. 10)
  polling  --period T --theta-min A --theta-max B --ep E --ec C --k K
           analytic polling-task curves (Example 1 / Fig. 2)
  mpeg     --clip NAME --gops N [--out-demands FILE] [--out-bits FILE]
           synthesize one of the 14 standard clips (use --clip list)
  pipeline --clip NAME --gops N --pe1-mhz X --pe2-mhz Y [--capacity C]
           simulate the two-PE decoder pipeline on a synthesized clip
  faults   --clip NAME --gops N --pe1-mhz X --pe2-mhz Y [--capacity C]
           [--policy backpressure|reject|drop-priority] [--seed S]
           [--inject SPEC[;SPEC...]] [--monitor on|off] [--k K]
           pipeline simulation under seeded fault injection with an
           online gamma_u envelope monitor (exit 4 on violations)
  sweep    --pe2-mhz F1,F2,... --capacities C1,C2,...
           [--clips all|NAME,NAME] [--gops N] [--pe1-mhz X]
           [--policies backpressure,reject,drop-priority]
           [--seeds clean,S1,S2] [--inject SPEC[;SPEC...]]
           [--k K --exact-upto N --stride S]
           [--prune on|off] [--frontier bisect] [--threads T]
           [--json FILE] [--csv FILE]
           [--shard I/N --out-wcmt FILE]
           [--merge a.wcmt,b.wcmt,... [--json FILE] [--csv FILE]]
           [--trace-out FILE] [--metrics-out FILE]
           parallel design-space sweep over the
           (clip x frequency x capacity x policy x seed) grid; an
           analytic pre-pass (eq. 8-10) skips provably safe/unsafe
           points, only the uncertain band is simulated. --json/--csv
           artifacts are written row by row as points are decided, so
           peak memory stays flat however large the grid is; a failed
           run leaves neither file behind.
           --frontier bisect computes only the Pareto frontier by
           binary-searching the monotone safe/unsafe staircase
           (O(log grid) cell evaluations per capacity) and prints it
           plus how many cells deciding it took (no --json/--csv)
           --shard I/N evaluates only the i-th of N balanced grid
           slices and writes it as a binary partial-sweep stream to
           --out-wcmt (run one process per shard); --merge folds the
           shard files back into the single-process report — stats,
           Pareto frontier and --json/--csv artifacts byte-identical —
           refusing mismatched or incomplete shard sets, and any grid
           option or --threads
           --trace-out writes a chrome://tracing JSON trace of the run,
           --metrics-out a counters/gauges/histograms summary
           --clips entries ending in `.wcmt' are read as binary clip
           streams (made with `wcm_mpeg::wire') instead of profile names
  serve    --tail FILE[,FILE...] | --listen HOST:PORT
           [--pe2-mhz F] [--capacity C] [--k K] [--refresh N]
           [--policy backpressure|reject|drop-priority]
           [--session-buffer N] [--period S] [--jitter S]
           [--monitor on|off]
           [--threads T] [--shards N] [--poll-ms MS]
           [--max-rounds N] [--idle-exit on|off]
           [--snapshots-out FILE] [--budget BYTES]
           [--trace-out FILE] [--metrics-out FILE]
           long-lived multi-tenant monitoring: tail growing `.wcmt'
           files (and/or accept streams on a TCP socket), demultiplex
           frames into per-session workload curves + envelope monitors
           (sessions switch on META frames), and recompute the eq.-9
           admission verdict -- can this stream join PE2 at --pe2-mhz
           without overflowing a --capacity FIFO? -- every --refresh
           events. Sessions are sharded over the wcm-par pool; the
           bounded per-session buffers reuse the sweep overflow
           policies as backpressure. SIGINT/SIGTERM drains gracefully
           and emits one JSON snapshot line per session. Exit codes:
           0 clean drain, 2 usage, 3 a source was malformed,
           4 monitor violations were observed
  validate [--json FILE] [--csv FILE] [--trace FILE] [--metrics FILE]
           [--wcmt FILE]
           strictly parse emitted report/trace/metrics/wire artifacts
           (exit 0 if every given file is well-formed, 3 otherwise;
           a file cut off mid-record is reported as file:line:byte)
  trace    encode --out FILE [--demands FILE] [--times FILE] [--name N]
           decode --in FILE [--policy strict|skip-corrupt]
                  [--out-demands FILE] [--out-times FILE]
           verify --in FILE
           convert between text traces and the versioned binary `.wcmt'
           wire format; decode prints a frame-level report. Exit codes:
           0 clean, 2 stream carries no events, 3 malformed/truncated,
           4 partial decode (skip-corrupt survived by dropping frames)
  help     this text

inject specs (name:key=val,key=val):
  jitter:start=I,len=N,delay=SECONDS   arrival jitter burst
  drop:pm=P                            drop events, P/1000 probability
  dup:pm=P                             duplicate events
  spike:start=I,len=N,factor=PCT       scale PE2 demands to PCT percent
  drift:pe=1|2,start=I,len=N,factor=PCT  clock drift (PCT >= 100)
  stall:pe=1|2,at=I,extra=SECONDS      one-off stall window
  biterr:pm=P                          channel bit errors

exit codes: 0 ok, 1 analysis error, 2 usage, 3 bad input file,
            4 monitor violations

options:
  --threads T   worker threads for the points of `sweep' and the shards
                of `serve': `auto' (default; all cores once the work is
                large enough), `1' (sequential) or an explicit count up
                to 256. Results are identical for any setting.
                `serve --shards N' has the same cap.";

fn mode(opts: &Options) -> Result<WindowMode, String> {
    match (opts.optional("exact-upto"), opts.optional("stride")) {
        (None, None) => Ok(WindowMode::Exact),
        _ => match opts.usize_or("stride", 16)? {
            0 => Err("--stride must be at least 1".to_string()),
            stride => Ok(WindowMode::Strided {
                exact_upto: opts.usize_or("exact-upto", 64)?,
                stride,
            }),
        },
    }
}

/// `curves` subcommand.
pub fn curves(opts: &Options) -> Result<(), CliError> {
    let demands = io::read_demands(Path::new(opts.required("demands")?))?;
    let k_max = opts.required_usize("k")?;
    let mode = mode(opts)?;
    let upper = UpperWorkloadCurve::new(max_window_sums(&demands, k_max, mode)?)?;
    let lower = LowerWorkloadCurve::new(min_window_sums(&demands, k_max, mode)?)?;
    println!("# k gamma_u gamma_l wcet_line bcet_line");
    let (w, b) = (upper.wcet().get(), lower.bcet().get());
    for k in 1..=k_max {
        println!(
            "{k} {} {} {} {}",
            upper.value(k).get(),
            lower.value(k).get(),
            w * k as u64,
            b * k as u64
        );
    }
    if opts.optional("closure").is_some() {
        let max_iter = opts.required_usize("closure")?;
        // Lift gamma_u to a right-continuous upper staircase over the
        // event-count axis: value gamma_u(k+1) on [k, k+1) — the demand
        // of any window holding more than k events — with a wcet-rate
        // tail past the measured horizon. Closure runs on the lazy
        // streaming path and reports convergence explicitly.
        let steps: Vec<(f64, u64)> = (1..=k_max)
            .map(|k| ((k - 1) as f64, upper.value(k).get()))
            .collect();
        let gamma = StepCurve::new(steps, (k_max - 1) as f64, w as f64)?.to_pwl_upper();
        let out = minplus::subadditive_closure_report(&gamma, max_iter);
        println!("closure_iterations {}", out.iterations);
        println!("closure_converged {}", out.converged);
        println!("closure_segments {}", out.curve.segments().len());
        println!("# k closure_gamma_u");
        for k in 1..=k_max {
            println!("{k} {}", out.curve.value((k - 1) as f64));
        }
    }
    Ok(())
}

/// `arrival` subcommand.
pub fn arrival(opts: &Options) -> Result<(), CliError> {
    let times = io::read_times(Path::new(opts.required("times")?))?;
    let k_max = opts.required_usize("k")?;
    let spans = min_spans(&times, k_max, WindowMode::Exact)?;
    println!("# delta_seconds events");
    for (i, d) in spans.iter().enumerate() {
        println!("{d} {}", i + 1);
    }
    Ok(())
}

/// `fmin` subcommand.
pub fn fmin(opts: &Options) -> Result<(), CliError> {
    let times = io::read_times(Path::new(opts.required("times")?))?;
    let demands = io::read_demands(Path::new(opts.required("demands")?))?;
    if times.len() != demands.len() {
        return Err(format!(
            "{} timestamps vs {} demands: the traces must align",
            times.len(),
            demands.len()
        )
        .into());
    }
    let buffer = opts.required_u64("buffer")?;
    let k_max = opts.required_usize("k")?;
    let mode = mode(opts)?;
    let gamma = UpperWorkloadCurve::new(max_window_sums(&demands, k_max, mode)?)?;
    let mut reg = wcm_events::TypeRegistry::new();
    let ty = reg.register("event", wcm_events::ExecutionInterval::fixed(Cycles(1)))?;
    let trace = wcm_events::TimedTrace::new(
        reg,
        times
            .iter()
            .map(|&time| wcm_events::TimedEvent { time, ty })
            .collect(),
    )?;
    let alpha = wcm_core::build::arrival_upper(&trace, k_max, mode)?;
    let f_gamma = sizing::min_frequency_workload(&alpha, &gamma, buffer)?;
    let f_wcet = sizing::min_frequency_wcet(&alpha, gamma.wcet(), buffer)?;
    println!("buffer_events {buffer}");
    println!("f_min_workload_hz {f_gamma:.1}");
    println!("f_min_wcet_hz {f_wcet:.1}");
    println!("savings_percent {:.1}", 100.0 * (1.0 - f_gamma / f_wcet));
    Ok(())
}

/// `polling` subcommand.
pub fn polling(opts: &Options) -> Result<(), CliError> {
    let task = PollingTask::new(
        opts.required_f64("period")?,
        opts.required_f64("theta-min")?,
        opts.required_f64("theta-max")?,
        Cycles(opts.required_u64("ep")?),
        Cycles(opts.required_u64("ec")?),
    )?;
    let k_max = opts.required_usize("k")?;
    println!("# k gamma_u gamma_l");
    for k in 1..=k_max {
        println!(
            "{k} {} {}",
            task.gamma_upper(k).get(),
            task.gamma_lower(k).get()
        );
    }
    Ok(())
}

/// `mpeg` subcommand.
pub fn mpeg(opts: &Options) -> Result<(), CliError> {
    let name = opts.required("clip")?;
    let clips = wcm_mpeg::profile::standard_clips();
    if name == "list" {
        for c in &clips {
            println!(
                "{} complexity={:.2} motion={:.2}",
                c.name, c.complexity, c.motion
            );
        }
        return Ok(());
    }
    let profile = clips
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown clip `{name}` (try --clip list)"))?;
    let gops = opts.required_usize("gops")?;
    let params = wcm_mpeg::VideoParams::main_profile_main_level()?;
    let clip = wcm_mpeg::Synthesizer::new(params).generate(profile, gops)?;
    let demands = clip.pe2_demands();
    if let Some(out) = opts.optional("out-demands") {
        write_u64s(Path::new(out), &demands)?;
        eprintln!("wrote {} demands to {out}", demands.len());
    }
    if let Some(out) = opts.optional("out-bits") {
        write_u64s(Path::new(out), &clip.mb_bits())?;
        eprintln!("wrote {} bit sizes to {out}", clip.macroblock_count());
    }
    let max = demands.iter().max().copied().unwrap_or(0);
    let sum: u64 = demands.iter().sum();
    println!("clip {name}");
    println!("macroblocks {}", clip.macroblock_count());
    println!("pe2_wcet_cycles {max}");
    println!(
        "pe2_mean_cycles {:.1}",
        sum as f64 / clip.macroblock_count() as f64
    );
    println!("total_bits {}", clip.total_bits());
    Ok(())
}

/// The synthesized clip and pipeline clocks that `pipeline` and `faults`
/// share: `--clip`, `--gops`, `--pe1-mhz` and `--pe2-mhz`.
fn clip_pipeline(
    opts: &Options,
) -> Result<(&str, wcm_mpeg::ClipWorkload, PipelineConfig), CliError> {
    let name = opts.required("clip")?;
    let profile = wcm_mpeg::profile::standard_clips()
        .into_iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown clip `{name}` (try `mpeg --clip list`)"))?;
    let gops = opts.required_usize("gops")?;
    let params = wcm_mpeg::VideoParams::main_profile_main_level()?;
    let clip = wcm_mpeg::Synthesizer::new(params).generate(&profile, gops)?;
    let cfg = PipelineConfig {
        bitrate_bps: params.bitrate_bps(),
        pe1_hz: opts.required_f64("pe1-mhz")? * 1e6,
        pe2_hz: opts.required_f64("pe2-mhz")? * 1e6,
    };
    Ok((name, clip, cfg))
}

/// `pipeline` subcommand.
pub fn pipeline(opts: &Options) -> Result<(), CliError> {
    let (name, clip, cfg) = clip_pipeline(opts)?;
    let fifo = match opts.optional("capacity") {
        Some(c) => {
            let capacity = c.parse::<u64>().map_err(|e| format!("--capacity: {e}"))?;
            FifoConfig::bounded(capacity, OverflowPolicy::Backpressure)
        }
        None => FifoConfig::unbounded(),
    };
    let mut run = SimScratch::new();
    let result = wcm_sim::simulate(&FaultedWorkload::clean(&clip)?, &cfg, &fifo, None, &mut run)?;
    let worst_latency = run
        .fifo_in_times()
        .iter()
        .zip(run.fifo_out_times())
        .map(|(i, o)| o - i)
        .fold(0.0f64, f64::max);
    println!("clip {name}");
    println!("macroblocks {}", clip.macroblock_count());
    println!("max_backlog_mb {}", result.max_backlog);
    println!("worst_fifo_latency_ms {:.3}", worst_latency * 1e3);
    println!("pe1_busy_s {:.4}", result.pe1_busy);
    println!("pe2_busy_s {:.4}", result.pe2_busy);
    println!("pe1_stalled_s {:.4}", result.pe1_stalled);
    println!("makespan_s {:.4}", result.makespan);
    Ok(())
}

/// `faults` subcommand: the pipeline under seeded fault injection,
/// bounded-FIFO degradation and an online γᵘ envelope monitor.
pub fn faults(opts: &Options) -> Result<(), CliError> {
    let (name, clip, cfg) = clip_pipeline(opts)?;

    let policy = match opts.optional("policy").unwrap_or("backpressure") {
        "backpressure" => OverflowPolicy::Backpressure,
        "reject" => OverflowPolicy::Reject,
        "drop-priority" => OverflowPolicy::DropByPriority,
        other => {
            return Err(CliError::Usage(format!(
                "--policy: `{other}` is not backpressure|reject|drop-priority"
            )))
        }
    };
    let fifo = match opts.optional("capacity") {
        Some(c) => FifoConfig::bounded(
            c.parse::<u64>().map_err(|e| format!("--capacity: {e}"))?,
            policy,
        ),
        None => FifoConfig::unbounded(),
    };

    let seed = match opts.optional("seed") {
        Some(s) => s.parse::<u64>().map_err(|e| format!("--seed: {e}"))?,
        None => 0,
    };
    let mut plan = FaultPlan::new(seed);
    if let Some(specs) = opts.optional("inject") {
        for spec in specs.split(';').filter(|s| !s.is_empty()) {
            plan = plan.with(parse_injector(spec)?);
        }
    }

    let monitor_on = match opts.optional("monitor").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::Usage(format!(
                "--monitor: `{other}` is not on|off"
            )))
        }
    };
    let k_max = opts.usize_or("k", 64)?;
    let mut monitor = if monitor_on {
        // γᵘ measured on the clean clip: the monitor then checks that the
        // (possibly faulted) consumed stream stays inside its own envelope.
        let gamma = UpperWorkloadCurve::new(max_window_sums(
            &clip.pe2_demands(),
            k_max,
            WindowMode::Exact,
        )?)?;
        Some(EnvelopeMonitor::upper_only(&gamma, k_max)?)
    } else {
        None
    };

    let stream = plan.apply(&clip)?;
    let mut run = SimScratch::new();
    let result = wcm_sim::simulate(&stream, &cfg, &fifo, monitor.as_mut(), &mut run)?;

    println!("clip {name}");
    println!("seed {seed}");
    println!(
        "policy {}",
        match (fifo.capacity, policy) {
            (None, _) => "unbounded".to_string(),
            (Some(c), p) => format!("{p:?}({c})").to_lowercase(),
        }
    );
    println!("stream_macroblocks {}", stream.len());
    let fr = &stream.report;
    println!(
        "injected dropped={} duplicated={} corrupted={} spiked={} jittered={} slowed={}",
        fr.dropped_events,
        fr.duplicated_events,
        fr.corrupted_events,
        fr.spiked_events,
        fr.jittered_events,
        fr.slowed_events
    );
    println!("max_backlog_mb {}", result.max_backlog);
    println!("dropped_by_fifo {}", result.dropped);
    if result.dropped > 0 {
        let (mut b, mut p, mut i) = (0u64, 0u64, 0u64);
        for &idx in run.dropped() {
            match stream.kinds[idx] {
                wcm_mpeg::params::FrameKind::B => b += 1,
                wcm_mpeg::params::FrameKind::P => p += 1,
                wcm_mpeg::params::FrameKind::I => i += 1,
            }
        }
        println!("dropped_kinds B={b} P={p} I={i}");
    }
    println!("pe1_stalled_s {:.4}", result.pe1_stalled);
    println!("makespan_s {:.4}", result.makespan);

    if let Some(m) = &monitor {
        let report = m.report();
        println!("monitor_events {}", m.events());
        println!("monitor_violations {}", m.total_violations());
        match report.min_upper_slack() {
            Some(s) => println!("min_upper_slack_cycles {s}"),
            None => println!("min_upper_slack_cycles n/a"),
        }
        for v in m.violations().iter().take(10) {
            println!(
                "violation offset={} k={} observed={} bound={} slack={}",
                v.offset,
                v.k,
                v.observed,
                v.bound,
                v.slack()
            );
        }
        if m.total_violations() > 0 {
            return Err(CliError::Violations {
                count: m.total_violations(),
            });
        }
    }
    Ok(())
}

/// The options `sweep --merge` reads. Every other sweep option shapes
/// the grid or how it is evaluated, which the shard files already fix.
const MERGE_OPTIONS: &[&str] = &["merge", "json", "csv", "trace-out", "metrics-out"];

/// `sweep` subcommand — the design-space exploration engine. A full
/// run (`--json`/`--csv`) and a merge stream their points through the
/// same [`ReportSinks`]; `--shard` streams them into a `.wcmt` file,
/// and `--frontier bisect` prints only the Pareto frontier.
pub fn sweep(opts: &Options) -> Result<(), CliError> {
    // Merge mode folds already-evaluated shard files; it takes no grid
    // arguments at all, so dispatch before anything is synthesized.
    if let Some(list) = opts.optional("merge") {
        if let Some(key) = opts.keys().find(|k| !MERGE_OPTIONS.contains(k)) {
            return Err(CliError::Usage(format!(
                "--merge cannot be combined with --{key}"
            )));
        }
        return sweep_merge(opts, list);
    }
    let frontier = match opts.optional("frontier") {
        None => false,
        Some("bisect") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--frontier: `{other}` is not bisect"
            )))
        }
    };
    let shard = match opts.optional("shard") {
        None => None,
        Some(s) => Some(parse_shard(s)?),
    };
    if shard.is_some() != opts.optional("out-wcmt").is_some() {
        return Err(CliError::Usage(
            "--shard I/N and --out-wcmt FILE go together (a full run writes --json/--csv)"
                .to_string(),
        ));
    }
    if opts.optional("out-wcmt").is_some() {
        for key in ["frontier", "json", "csv"] {
            if opts.optional(key).is_some() {
                return Err(CliError::Usage(format!(
                    "--out-wcmt cannot be combined with --{key} (merge the shards first)"
                )));
            }
        }
    }
    if frontier {
        for key in ["json", "csv"] {
            if opts.optional(key).is_some() {
                return Err(CliError::Usage(format!(
                    "--frontier cannot be combined with --{key} (it writes no report)"
                )));
            }
        }
    }

    let params = wcm_mpeg::VideoParams::main_profile_main_level()?;
    let all = wcm_mpeg::profile::standard_clips();
    let gops = opts.usize_or("gops", 1)?;
    let synth = wcm_mpeg::Synthesizer::new(params);
    // `--clips` entries are synthesizer profile names or paths to `.wcmt`
    // streams of pre-encoded clip workloads (see `wcm_mpeg::wire`).
    let mut clips: Vec<wcm_mpeg::ClipWorkload> = Vec::new();
    match opts.optional("clips").unwrap_or("all") {
        "all" => {
            for p in &all {
                clips.push(synth.generate(p, gops)?);
            }
        }
        list => {
            for entry in list.split(',') {
                if entry.ends_with(".wcmt") {
                    clips.extend(load_wire_clips(Path::new(entry))?);
                } else {
                    let p = all.iter().find(|c| c.name == entry).ok_or_else(|| {
                        format!("unknown clip `{entry}` (try `mpeg --clip list`)")
                    })?;
                    clips.push(synth.generate(p, gops)?);
                }
            }
        }
    }

    let frequencies_hz: Vec<f64> = parse_list(opts.required("pe2-mhz")?, "pe2-mhz")?
        .into_iter()
        .map(|f: f64| f * 1e6)
        .collect();
    let capacities: Vec<u64> = parse_list(opts.required("capacities")?, "capacities")?;
    let policies = opts
        .optional("policies")
        .unwrap_or("backpressure")
        .split(',')
        .map(|p| match p {
            "backpressure" => Ok(OverflowPolicy::Backpressure),
            "reject" => Ok(OverflowPolicy::Reject),
            "drop-priority" => Ok(OverflowPolicy::DropByPriority),
            other => Err(CliError::Usage(format!(
                "--policies: `{other}` is not backpressure|reject|drop-priority"
            ))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = opts
        .optional("seeds")
        .unwrap_or("clean")
        .split(',')
        .map(|s| match s {
            "clean" => Ok(None),
            n => n
                .parse::<u64>()
                .map(Some)
                .map_err(|e| CliError::Usage(format!("--seeds: `{n}`: {e}"))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut injectors = Vec::new();
    if let Some(specs) = opts.optional("inject") {
        for spec in specs.split(';').filter(|s| !s.is_empty()) {
            injectors.push(parse_injector(spec)?);
        }
    }
    let prune = match opts.optional("prune").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::Usage(format!(
                "--prune: `{other}` is not on|off"
            )))
        }
    };

    let spec = wcm_sim::SweepSpec {
        pe1_hz: match opts.optional("pe1-mhz") {
            Some(v) => v.parse::<f64>().map_err(|e| format!("--pe1-mhz: {e}"))? * 1e6,
            None => 60.0e6,
        },
        frequencies_hz,
        capacities,
        policies,
        seeds,
        injectors,
        k_max: opts.usize_or("k", 600)?,
        mode: mode(opts)?,
        cert_depth: 0, // unread, see the field's docs
        prune,
    };

    // Frontier-only mode: locate the Pareto frontier by bisection,
    // without visiting most of the grid.
    if frontier {
        let fr = recorded(opts, || Ok(wcm_sim::run_frontier(&clips, &spec)?))?;
        println!("grid_cells {}", fr.grid_cells);
        println!("evaluated_cells {}", fr.evaluated_cells);
        print_pareto(&fr.frontier);
        return Ok(());
    }

    // Shard mode: evaluate one balanced slice of the grid and write it
    // as a partial-sweep `.wcmt` stream for a later `--merge`.
    if let Some(shard) = shard {
        let out = opts.required("out-wcmt")?;
        let (file, part) = create_part(Path::new(out), ".part")?;
        let mut sink = wcm_sim::WcmtShardSink::new(std::io::BufWriter::new(file))?;
        let summary = recorded(opts, || {
            Ok(wcm_sim::run_sweep_streaming(&clips, &spec, shard, &mut sink)?)
        })?;
        commit(sink.finish_stream()?, part, Path::new(out))?;
        println!("shard {}/{}", shard.index, shard.count);
        println!("points {}", summary.stats.total);
        println!("wrote {out}");
        return Ok(());
    }

    let mut sinks = ReportSinks::create(opts)?;
    let summary = recorded(opts, || {
        Ok(wcm_sim::run_sweep_streaming(
            &clips,
            &spec,
            wcm_sim::ShardRange::FULL,
            &mut sinks,
        )?)
    })?;
    sinks.finish(&summary)?;
    print_summary(&summary);
    Ok(())
}

/// `sweep --merge`: fold shard `.wcmt` streams back into the
/// single-process report, written through the same sinks as a full
/// run. Exit codes follow the global table: a malformed or truncated
/// shard file is a bad input (3, via the strict wire decode), an
/// inconsistent or incomplete shard set is a usage error (2).
fn sweep_merge(opts: &Options, list: &str) -> Result<(), CliError> {
    let mut decoded = Vec::new();
    for entry in list.split(',').filter(|s| !s.is_empty()) {
        let path = Path::new(entry);
        let bytes = read_wire_bytes(path)?;
        decoded.push(
            wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict)
                .map_err(|e| io::wire_error(path, &e))?,
        );
    }
    if decoded.is_empty() {
        return Err(CliError::Usage(
            "--merge needs at least one shard file".to_string(),
        ));
    }
    let mut sinks = ReportSinks::create(opts)?;
    let summary = recorded(opts, || Ok(wcm_sim::merge_shards(&decoded, &mut sinks)?))?;
    sinks.finish(&summary)?;
    println!("merged_shards {}", decoded.len());
    print_summary(&summary);
    Ok(())
}

/// Runs `work` under the in-memory `wcm-obs` recorder when the command
/// was given `--trace-out` and/or `--metrics-out`, then writes the
/// capture there as a `chrome://tracing` trace and a counters/gauges/
/// histograms summary. Without either option the recorder stays off.
/// Instrumentation never touches results, so reports are byte-identical
/// either way (checked by `scripts/obs_smoke.sh`).
fn recorded<T>(
    opts: &Options,
    work: impl FnOnce() -> Result<T, CliError>,
) -> Result<T, CliError> {
    let trace_out = opts.optional("trace-out");
    let metrics_out = opts.optional("metrics-out");
    if trace_out.is_none() && metrics_out.is_none() {
        return work();
    }
    wcm_obs::mem().reset();
    wcm_obs::set_enabled(true);
    let out = work();
    wcm_obs::set_enabled(false);
    let out = out?;
    let snap = wcm_obs::mem().snapshot();
    if let Some(path) = trace_out {
        write_report(Path::new(path), &snap.to_chrome_trace())?;
    }
    if let Some(path) = metrics_out {
        write_report(Path::new(path), &snap.to_metrics_json())?;
    }
    Ok(out)
}

/// The stats and Pareto lines of a full sweep or a merge.
fn print_summary(summary: &wcm_sim::SweepSummary) {
    let s = &summary.stats;
    println!("points {}", s.total);
    println!(
        "pruned_safe {} pruned_unsafe {} simulated {}",
        s.pruned_safe, s.pruned_unsafe, s.simulated
    );
    println!("pruned_fraction {:.4}", s.pruned_fraction());
    println!("overflowed {}", s.overflowed);
    print_pareto(&summary.pareto);
}

fn print_pareto(pareto: &[(f64, u64)]) {
    for &(f, c) in pareto {
        println!("pareto {:.2} MHz capacity {c}", f / 1e6);
    }
}

/// Parses `--shard I/N`.
fn parse_shard(s: &str) -> Result<wcm_sim::ShardRange, CliError> {
    let (i, n) = s
        .split_once('/')
        .ok_or_else(|| CliError::Usage(format!("--shard: `{s}` is not I/N")))?;
    let index = i
        .parse()
        .map_err(|e| CliError::Usage(format!("--shard: `{i}`: {e}")))?;
    let count = n
        .parse()
        .map_err(|e| CliError::Usage(format!("--shard: `{n}`: {e}")))?;
    if count == 0 || index >= count {
        return Err(CliError::Usage(format!(
            "--shard: index {index} out of range for {count} shard(s)"
        )));
    }
    Ok(wcm_sim::ShardRange { index, count })
}

/// The `--csv`/`--json` writers of a full sweep or a merge, fed as the
/// points stream past. Neither final file exists before
/// [`ReportSinks::finish`]: the CSV goes to `<path>.part`, renamed into
/// place once the run has succeeded, and the JSON is composed the same
/// way by a [`JsonRowsSink`]. Every temporary sits under a
/// [`TempFileGuard`], so a run that fails leaves no artifact behind.
struct ReportSinks {
    csv: Option<CsvPart>,
    json: Option<JsonRowsSink>,
}

/// A [`ReportSinks`] CSV: its sink, the guarded `.part` file the sink
/// writes, and the path the file moves to.
type CsvPart = (
    wcm_sim::CsvSink<std::io::BufWriter<std::fs::File>>,
    TempFileGuard,
    std::path::PathBuf,
);

impl ReportSinks {
    fn create(opts: &Options) -> Result<Self, CliError> {
        let csv = match opts.optional("csv") {
            Some(p) => {
                let (file, part) = create_part(Path::new(p), ".part")?;
                let sink = wcm_sim::CsvSink::new(std::io::BufWriter::new(file));
                Some((sink, part, p.into()))
            }
            None => None,
        };
        let json = match opts.optional("json") {
            Some(p) => Some(JsonRowsSink::create(Path::new(p))?),
            None => None,
        };
        Ok(Self { csv, json })
    }

    /// Composes the JSON document, then moves the CSV into place.
    fn finish(self, summary: &wcm_sim::SweepSummary) -> Result<(), CliError> {
        if let Some(json) = self.json {
            json.compose(summary)?;
        }
        if let Some((sink, part, path)) = self.csv {
            commit(sink.into_inner(), part, &path)?;
        }
        Ok(())
    }

    fn sinks(&mut self) -> impl Iterator<Item = &mut dyn wcm_sim::SweepSink> {
        let csv = self.csv.as_mut().map(|(s, ..)| s as &mut dyn wcm_sim::SweepSink);
        let json = self.json.as_mut().map(|s| s as &mut dyn wcm_sim::SweepSink);
        csv.into_iter().chain(json)
    }
}

impl wcm_sim::SweepSink for ReportSinks {
    fn begin(&mut self, header: &wcm_sim::SweepRunHeader<'_>) -> Result<(), wcm_sim::SweepError> {
        self.sinks().try_for_each(|s| s.begin(header))
    }

    fn point(&mut self, rec: &wcm_sim::PointRecord<'_>) -> Result<(), wcm_sim::SweepError> {
        self.sinks().try_for_each(|s| s.point(rec))
    }

    fn finish(&mut self, summary: &wcm_sim::SweepSummary) -> Result<(), wcm_sim::SweepError> {
        self.sinks().try_for_each(|s| s.finish(summary))
    }
}

/// Removes its file on drop — scoped cleanup for side files that must
/// not outlive the run. Whatever path exits `sweep` (success, usage
/// error, bad input, a sink I/O failure mid-stream), the temporary is
/// gone by the time the process reports its exit code.
struct TempFileGuard {
    path: std::path::PathBuf,
}

impl TempFileGuard {
    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Creates the side file `<path><suffix>` under a [`TempFileGuard`].
fn create_part(path: &Path, suffix: &str) -> Result<(std::fs::File, TempFileGuard), CliError> {
    let part = std::path::PathBuf::from(format!("{}{suffix}", path.display()));
    let file = std::fs::File::create(&part).map_err(|source| CliError::Io {
        path: part.clone(),
        source,
    })?;
    Ok((file, TempFileGuard { path: part }))
}

/// Flushes `out`, the writer of the side file `part`, and moves the
/// file to `path`: the artifact appears complete or not at all.
fn commit(
    out: std::io::BufWriter<std::fs::File>,
    part: TempFileGuard,
    path: &Path,
) -> Result<(), CliError> {
    out.into_inner().map_err(|e| CliError::Io {
        path: part.path().to_path_buf(),
        source: e.into_error(),
    })?;
    std::fs::rename(part.path(), path).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Streams JSON point rows to a `<path>.rows.part` side file during the
/// sweep, then composes the final document (stats head + rows + tail)
/// in `<path>.part` once the summary is known, and moves it to `path` —
/// the stats block precedes the points in the report layout, so a
/// single pass cannot write the file in order. Both side files live
/// under [`TempFileGuard`]s, so they are removed even when the sweep
/// errors out before `compose` runs or `compose` fails.
struct JsonRowsSink {
    out: std::io::BufWriter<std::fs::File>,
    part: TempFileGuard,
    path: std::path::PathBuf,
    rows: u64,
}

impl JsonRowsSink {
    fn create(path: &Path) -> Result<Self, CliError> {
        let (file, part) = create_part(path, ".rows.part")?;
        Ok(Self {
            out: std::io::BufWriter::new(file),
            part,
            path: path.to_path_buf(),
            rows: 0,
        })
    }

    fn compose(self, summary: &wcm_sim::SweepSummary) -> Result<(), CliError> {
        use std::io::Write;
        let JsonRowsSink {
            out,
            part,
            path,
            rows,
        } = self;
        let io_err = |p: &Path| {
            let p = p.to_path_buf();
            move |source: std::io::Error| CliError::Io { path: p, source }
        };
        out.into_inner()
            .map_err(|e| io_err(part.path())(e.into_error()))?;
        let (file, doc) = create_part(&path, ".part")?;
        let mut w = std::io::BufWriter::new(file);
        w.write_all(wcm_sim::sweep::json_head(&summary.stats).as_bytes())
            .map_err(io_err(doc.path()))?;
        let mut rows_file = std::fs::File::open(part.path()).map_err(io_err(part.path()))?;
        std::io::copy(&mut rows_file, &mut w).map_err(io_err(doc.path()))?;
        if rows > 0 {
            w.write_all(b"\n").map_err(io_err(doc.path()))?;
        }
        w.write_all(wcm_sim::sweep::json_tail(&summary.advisories, &summary.pareto).as_bytes())
            .map_err(io_err(doc.path()))?;
        // `part` drops here — and on every early return above — removing
        // the side file unconditionally; `doc` only reaches `path` whole.
        commit(w, doc, &path)
    }
}

impl wcm_sim::SweepSink for JsonRowsSink {
    fn point(&mut self, rec: &wcm_sim::PointRecord<'_>) -> Result<(), wcm_sim::SweepError> {
        use std::io::Write;
        if self.rows > 0 {
            self.out.write_all(b",\n")?;
        }
        self.out
            .write_all(wcm_sim::sweep::json_point_row(rec).as_bytes())?;
        self.rows += 1;
        Ok(())
    }
}

/// Graceful-shutdown flag for `serve`, flipped by SIGINT/SIGTERM.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Route SIGINT and SIGTERM to the stop flag.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: installing a handler that only stores to an atomic is
        // async-signal-safe; 2/SIGINT and 15/SIGTERM are POSIX-fixed.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    /// Whether a shutdown signal arrived.
    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// `serve` subcommand: long-lived multi-tenant monitoring of live
/// `.wcmt` streams with per-session curves, envelope monitors and
/// eq.-9 admission verdicts.
pub fn serve(opts: &Options) -> Result<(), CliError> {
    use wcm_serve::{ServeConfig, Service};

    let tails = opts.optional("tail");
    let listen = opts.optional("listen");
    if tails.is_none() && listen.is_none() {
        return Err(CliError::Usage(
            "serve: need --tail FILE[,FILE...] and/or --listen HOST:PORT".to_string(),
        ));
    }
    let shards = opts.usize_or("shards", 0)?;
    if shards > wcm_par::MAX_POOL_THREADS {
        return Err(CliError::Usage(format!(
            "option `--shards`: {shards} exceeds the pool cap of {}",
            wcm_par::MAX_POOL_THREADS
        )));
    }
    let policy = match opts.optional("policy").unwrap_or("backpressure") {
        "backpressure" => OverflowPolicy::Backpressure,
        "reject" => OverflowPolicy::Reject,
        "drop-priority" => OverflowPolicy::DropByPriority,
        other => {
            return Err(CliError::Usage(format!(
                "--policy: `{other}` is not backpressure|reject|drop-priority"
            )))
        }
    };
    let on_off = |name: &str, default: bool| -> Result<bool, CliError> {
        match opts.optional(name) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(CliError::Usage(format!("--{name}: `{other}` is not on|off"))),
        }
    };
    let f64_or = |name: &str, default: f64| -> Result<f64, CliError> {
        match opts.optional(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| CliError::Usage(format!("option `--{name}`: {e}"))),
        }
    };
    let k_max = opts.usize_or("k", 64)?;
    if k_max == 0 {
        return Err(CliError::Usage("--k must be at least 1".to_string()));
    }
    let pe2_mhz = f64_or("pe2-mhz", 60.0)?;
    let period_s = f64_or("period", 1.0 / 30.0)?;
    if !(pe2_mhz.is_finite() && pe2_mhz > 0.0) {
        return Err(CliError::Usage("--pe2-mhz must be positive".to_string()));
    }
    if !(period_s.is_finite() && period_s > 0.0) {
        return Err(CliError::Usage("--period must be positive".to_string()));
    }
    let capacity = opts.usize_or("capacity", 400)?;
    if capacity == 0 {
        return Err(CliError::Usage("--capacity must be at least 1".to_string()));
    }
    let cfg = ServeConfig {
        k_max,
        refresh_every: opts.usize_or("refresh", 64)?.max(1) as u64,
        frequency_hz: pe2_mhz * 1e6,
        capacity_events: capacity as u64,
        policy,
        session_buffer: opts.usize_or("session-buffer", 4096)?.max(1),
        monitor: on_off("monitor", true)?,
        period_s,
        jitter_s: f64_or("jitter", 0.0)?.max(0.0),
        shards,
        par: wcm_par::Parallelism::current(),
    };
    let mut svc = Service::new(cfg);
    if let Some(spec) = tails {
        for path in spec.split(',').filter(|s| !s.is_empty()) {
            svc.add_tail(Path::new(path)).map_err(|source| CliError::Io {
                path: path.into(),
                source,
            })?;
        }
    }
    if let Some(addr) = listen {
        let bound = svc.listen(addr).map_err(|source| CliError::Io {
            path: addr.into(),
            source,
        })?;
        println!("listening {bound}");
    }
    if let Some(b) = opts.optional("budget") {
        svc.set_budget(
            b.parse()
                .map_err(|e| CliError::Usage(format!("option `--budget`: {e}")))?,
        );
    }

    let max_rounds = opts.usize_or("max-rounds", 0)?;
    let idle_exit = on_off("idle-exit", false)?;
    let poll_ms = opts.usize_or("poll-ms", 50)?;
    sig::install();
    let serve_err = |e: std::io::Error| CliError::Analysis(format!("serve: {e}"));
    let dead = recorded(opts, || {
        let mut dead: Vec<(String, wcm_wire::WireError)> = Vec::new();
        let mut rounds = 0usize;
        while !sig::stopped() {
            let report = svc.round().map_err(serve_err)?;
            dead.extend(report.dead.iter().cloned());
            rounds += 1;
            if max_rounds > 0 && rounds >= max_rounds {
                break;
            }
            if idle_exit && report.idle {
                break;
            }
            if report.bytes == 0 && !sig::stopped() {
                std::thread::sleep(std::time::Duration::from_millis(poll_ms as u64));
            }
        }
        // Graceful drain: flush everything already decoded or on disk,
        // then snapshot every session.
        dead.extend(svc.drain().map_err(serve_err)?.dead);
        Ok(dead)
    })?;

    let snapshots = svc.snapshots();
    if let Some(path) = opts.optional("snapshots-out") {
        let mut text = String::with_capacity(snapshots.iter().map(|l| l.len() + 1).sum());
        for line in &snapshots {
            text.push_str(line);
            text.push('\n');
        }
        write_report(Path::new(path), &text)?;
    } else {
        for line in &snapshots {
            println!("{line}");
        }
    }
    let stats = svc.stats();
    println!("rounds {}", stats.rounds);
    println!("sessions {}", stats.sessions);
    println!("events {}", stats.events);
    println!("violations {}", stats.violations);
    println!("flips {}", stats.flips);
    println!("dropped {}", stats.dropped);
    println!("stall_rounds {}", stats.stall_rounds);
    println!("bytes {}", stats.bytes);
    if let Some(kb) = wcm_serve::peak_rss_kb() {
        println!("peak_rss_kb {kb}");
    }

    // Exit contract: malformed sources (3) outrank violations (4),
    // which outrank a clean drain (0).
    if let Some((src, err)) = dead.first() {
        return Err(CliError::WireMalformed {
            path: src.into(),
            offset: err.offset,
            reason: err.to_string(),
        });
    }
    if stats.violations > 0 {
        return Err(CliError::Violations {
            count: stats.violations,
        });
    }
    Ok(())
}

/// `validate` subcommand: strict well-formedness checks on the machine-
/// readable artifacts the other subcommands emit, using the in-repo
/// zero-dependency readers (`wcm_obs::json` / `wcm_obs::csv`). CI runs this
/// against freshly emitted reports so an emission regression (e.g. a bare
/// `NaN` float) fails the pipeline instead of the downstream consumer.
pub fn validate(opts: &Options) -> Result<(), CliError> {
    let mut checked = 0usize;

    // (flag, required top-level members) — all three are JSON documents.
    for (key, members) in [
        ("json", &["stats", "points", "pareto"][..]),
        ("trace", &["traceEvents"][..]),
        ("metrics", &["counters", "gauges", "histograms", "spans"][..]),
    ] {
        if let Some(path) = opts.optional(key) {
            let text = read_artifact(path)?;
            let v = wcm_obs::json::parse(&text).map_err(|e| json_parse_error(path, &text, &e))?;
            for member in members {
                if v.get(member).is_none() {
                    return Err(CliError::Parse {
                        path: path.into(),
                        line: 1,
                        token: (*member).to_string(),
                        reason: format!("missing top-level member \"{member}\""),
                    });
                }
            }
            println!("{key} {path} ok");
            checked += 1;
        }
    }

    if let Some(path) = opts.optional("csv") {
        let text = read_artifact(path)?;
        let rows = wcm_obs::csv::parse_table(&text).map_err(|e| {
            if e.eof {
                // The file ended mid-record: a truncated transfer, not
                // malformed bytes. Report the cut as file:line:byte.
                CliError::Truncated {
                    path: path.into(),
                    line: e.line,
                    byte: e.byte,
                }
            } else {
                CliError::Parse {
                    path: path.into(),
                    line: e.line,
                    token: String::new(),
                    reason: e.msg,
                }
            }
        })?;
        println!("csv {path} ok ({} records)", rows.len());
        checked += 1;
    }

    if let Some(path) = opts.optional("wcmt") {
        let bytes = std::fs::read(path).map_err(|source| CliError::Io {
            path: path.into(),
            source,
        })?;
        let decoded = wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict)
            .map_err(|e| io::wire_error(Path::new(path), &e))?;
        println!(
            "wcmt {path} ok ({} frame(s), {} demand(s), {} time(s))",
            decoded.report.frames_read,
            decoded.demands.len(),
            decoded.times.len()
        );
        checked += 1;
    }

    if checked == 0 {
        return Err(CliError::Usage(
            "validate needs at least one of --json/--csv/--trace/--metrics/--wcmt".to_string(),
        ));
    }
    Ok(())
}

/// `trace encode`: write text traces as a `.wcmt` stream.
pub fn trace_encode(opts: &Options) -> Result<(), CliError> {
    let out = opts.required("out")?;
    let mut enc = wcm_wire::StreamEncoder::new();
    enc.meta(opts.optional("name").unwrap_or("trace"));
    let mut wrote = false;
    if let Some(path) = opts.optional("demands") {
        enc.demands(&io::read_demands(Path::new(path))?);
        wrote = true;
    }
    if let Some(path) = opts.optional("times") {
        enc.times(&io::read_times(Path::new(path))?)
            .map_err(|e| CliError::Analysis(e.to_string()))?;
        wrote = true;
    }
    if !wrote {
        return Err(CliError::Usage(
            "trace encode needs --demands and/or --times".to_string(),
        ));
    }
    let bytes = enc.finish();
    write_report_bytes(Path::new(out), &bytes)?;
    println!("encoded {} byte(s) to {out}", bytes.len());
    Ok(())
}

/// `trace decode`: decode a `.wcmt` stream, print its frame-level report
/// and optionally write the events back as text.
///
/// The `trace` exit-code contract (the one documented exception to the
/// global table, see [`CliError::exit_code`]): 0 = decoded clean, 2 =
/// stream carries no events, 3 = malformed or truncated under `--policy
/// strict`, 4 = `--policy skip-corrupt` produced output but skipped
/// corrupt frames or hit truncation.
pub fn trace_decode(opts: &Options) -> Result<(), CliError> {
    let path = Path::new(opts.required("in")?);
    let policy = match opts.optional("policy").unwrap_or("strict") {
        "strict" => wcm_wire::DecodePolicy::Strict,
        "skip-corrupt" => wcm_wire::DecodePolicy::SkipCorrupt,
        other => {
            return Err(CliError::Usage(format!(
                "--policy: `{other}` is not strict|skip-corrupt"
            )))
        }
    };
    let bytes = read_wire_bytes(path)?;
    let decoded =
        wcm_wire::decode(&bytes, policy).map_err(|e| io::wire_error(path, &e))?;

    if let Some(out) = opts.optional("out-demands") {
        let mut text = String::new();
        for d in &decoded.demands {
            text.push_str(&format!("{d}\n"));
        }
        write_report(Path::new(out), &text)?;
    }
    if let Some(out) = opts.optional("out-times") {
        let mut text = String::new();
        for t in &decoded.times {
            text.push_str(&format!("{t}\n"));
        }
        write_report(Path::new(out), &text)?;
    }

    let r = &decoded.report;
    if let Some(name) = &decoded.name {
        println!("name {name}");
    }
    println!(
        "demands {} times {} typed_events {} summaries {} app_frames {}",
        decoded.demands.len(),
        decoded.times.len(),
        r.events_decoded,
        decoded.summaries.len(),
        decoded.app_frames.len()
    );
    println!(
        "frames_read {} frames_skipped {} frames_unknown {} bytes_lost {}",
        r.frames_read, r.frames_skipped, r.frames_unknown, r.bytes_lost
    );
    println!("truncated {} clean_end {}", r.truncated, r.clean_end);

    // Degraded-but-usable beats empty in the exit contract: a stream
    // whose every data frame was skipped still exits 4, not 2.
    if !r.is_clean() {
        return Err(CliError::WirePartial {
            path: path.to_path_buf(),
            frames_skipped: r.frames_skipped,
            bytes_lost: r.bytes_lost,
        });
    }
    if decoded.is_empty() {
        return Err(CliError::WireEmpty {
            path: path.to_path_buf(),
        });
    }
    Ok(())
}

/// `trace verify`: strict integrity check of a `.wcmt` stream (exit codes
/// as for [`trace_decode`]).
pub fn trace_verify(opts: &Options) -> Result<(), CliError> {
    let path = Path::new(opts.required("in")?);
    let bytes = read_wire_bytes(path)?;
    let decoded = wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict)
        .map_err(|e| io::wire_error(path, &e))?;
    if decoded.is_empty() {
        return Err(CliError::WireEmpty {
            path: path.to_path_buf(),
        });
    }
    println!(
        "{} ok: {} frame(s), {} demand(s), {} time(s), {} typed event(s)",
        path.display(),
        decoded.report.frames_read,
        decoded.demands.len(),
        decoded.times.len(),
        decoded.report.events_decoded
    );
    Ok(())
}

/// Loads every clip workload from a `.wcmt` stream (strict decode).
fn load_wire_clips(path: &Path) -> Result<Vec<wcm_mpeg::ClipWorkload>, CliError> {
    let bytes = read_wire_bytes(path)?;
    let (clips, _report) =
        wcm_mpeg::wire::decode_clips(&bytes, wcm_wire::DecodePolicy::Strict)
            .map_err(|e| io::wire_error(path, &e))?;
    if clips.is_empty() {
        return Err(CliError::WireEmpty {
            path: path.to_path_buf(),
        });
    }
    Ok(clips)
}

fn read_wire_bytes(path: &Path) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn write_report_bytes(path: &Path, contents: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn read_artifact(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.into(),
        source,
    })
}

/// Maps a byte-offset JSON error onto the file:line:token shape of
/// [`CliError::Parse`] — or [`CliError::Truncated`] when the parser says
/// the input simply ended too early.
fn json_parse_error(path: &str, text: &str, e: &wcm_obs::json::JsonError) -> CliError {
    let offset = e.offset.min(text.len());
    let line = 1 + text[..offset].bytes().filter(|&b| b == b'\n').count();
    if e.eof {
        return CliError::Truncated {
            path: path.into(),
            line,
            byte: offset,
        };
    }
    let token: String = text[offset..].chars().take(12).collect();
    CliError::Parse {
        path: path.into(),
        line,
        token,
        reason: e.msg.clone(),
    }
}

fn parse_list<T: std::str::FromStr>(list: &str, name: &str) -> Result<Vec<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    list.split(',')
        .map(|v| {
            v.parse::<T>()
                .map_err(|e| CliError::Usage(format!("--{name}: `{v}`: {e}")))
        })
        .collect()
}

fn write_report(path: &Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn parse_injector(spec: &str) -> Result<Injector, CliError> {
    let (name, rest) = match spec.split_once(':') {
        Some((n, r)) => (n, r),
        None => (spec, ""),
    };
    let mut kv = std::collections::BTreeMap::new();
    for pair in rest.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').ok_or_else(|| {
            CliError::Usage(format!("--inject `{spec}`: `{pair}` is not key=val"))
        })?;
        if kv.insert(k, v).is_some() {
            return Err(CliError::Usage(format!(
                "--inject `{spec}`: key `{k}` given twice"
            )));
        }
    }
    let mut get = |key: &str| -> Result<&str, CliError> {
        kv.remove(key)
            .ok_or_else(|| CliError::Usage(format!("--inject `{spec}`: missing key `{key}`")))
    };
    fn num<T: std::str::FromStr>(spec: &str, key: &str, v: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        v.parse()
            .map_err(|e| CliError::Usage(format!("--inject `{spec}`: {key}={v}: {e}")))
    }
    let pe = |v: &str| -> Result<ProcessingElement, CliError> {
        match v {
            "1" => Ok(ProcessingElement::Pe1),
            "2" => Ok(ProcessingElement::Pe2),
            other => Err(CliError::Usage(format!(
                "--inject `{spec}`: pe={other} is not 1|2"
            ))),
        }
    };
    let injector = match name {
        "jitter" => Injector::JitterBurst {
            start: num(spec, "start", get("start")?)?,
            len: num(spec, "len", get("len")?)?,
            max_delay_s: num(spec, "delay", get("delay")?)?,
        },
        "drop" => Injector::DropEvents {
            per_mille: num(spec, "pm", get("pm")?)?,
        },
        "dup" => Injector::DuplicateEvents {
            per_mille: num(spec, "pm", get("pm")?)?,
        },
        "spike" => Injector::DemandSpike {
            start: num(spec, "start", get("start")?)?,
            len: num(spec, "len", get("len")?)?,
            factor_pct: num(spec, "factor", get("factor")?)?,
        },
        "drift" => Injector::ClockDrift {
            pe: pe(get("pe")?)?,
            start: num(spec, "start", get("start")?)?,
            len: num(spec, "len", get("len")?)?,
            factor_pct: num(spec, "factor", get("factor")?)?,
        },
        "stall" => Injector::Stall {
            pe: pe(get("pe")?)?,
            at: num(spec, "at", get("at")?)?,
            extra_s: num(spec, "extra", get("extra")?)?,
        },
        "biterr" => Injector::BitErrors {
            per_mille: num(spec, "pm", get("pm")?)?,
        },
        other => {
            return Err(CliError::Usage(format!(
                "--inject: unknown injector `{other}` (see `wcm-cli help`)"
            )))
        }
    };
    if let Some((k, _)) = kv.into_iter().next() {
        return Err(CliError::Usage(format!(
            "--inject `{spec}`: unknown key `{k}`"
        )));
    }
    injector
        .validate()
        .map_err(|e| CliError::Usage(format!("--inject `{spec}`: {e}")))?;
    Ok(injector)
}

fn write_u64s(path: &Path, values: &[u64]) -> Result<(), CliError> {
    use std::io::Write;
    let write = |path: &Path, values: &[u64]| -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        for v in values {
            writeln!(f, "{v}")?;
        }
        Ok(())
    };
    write(path, values).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_specs_parse() {
        assert_eq!(
            parse_injector("drop:pm=50").unwrap(),
            Injector::DropEvents { per_mille: 50 }
        );
        assert_eq!(
            parse_injector("spike:start=10,len=5,factor=250").unwrap(),
            Injector::DemandSpike {
                start: 10,
                len: 5,
                factor_pct: 250
            }
        );
        assert_eq!(
            parse_injector("stall:pe=2,at=7,extra=0.01").unwrap(),
            Injector::Stall {
                pe: ProcessingElement::Pe2,
                at: 7,
                extra_s: 0.01
            }
        );
        assert_eq!(
            parse_injector("jitter:start=0,len=9,delay=0.002").unwrap(),
            Injector::JitterBurst {
                start: 0,
                len: 9,
                max_delay_s: 0.002
            }
        );
    }

    #[test]
    fn injector_specs_reject_garbage() {
        assert!(parse_injector("warp:pm=1").is_err()); // unknown injector
        assert!(parse_injector("drop").is_err()); // missing key
        assert!(parse_injector("drop:pm=50,x=1").is_err()); // unknown key
        assert!(parse_injector("drop:pm").is_err()); // not key=val
        assert!(parse_injector("drop:pm=2000").is_err()); // out of range
        assert!(parse_injector("drift:pe=3,start=0,len=1,factor=120").is_err());
    }
}
