//! `wcm-cli` — workload-curve analysis from the command line.
//!
//! Subcommands:
//!
//! * `curves --demands FILE --k K [--stride S]` — workload curves from a
//!   per-event demand trace (one integer per line);
//! * `arrival --times FILE --k K` — empirical arrival staircase from a
//!   timestamp trace (one float per line, seconds, sorted);
//! * `fmin --times FILE --demands FILE --buffer B --k K` — minimum clock
//!   frequency by eq. 9 and eq. 10;
//! * `polling --period T --theta-min A --theta-max B --ep E --ec C --k K`
//!   — the analytic curves of Example 1;
//! * `mpeg --clip NAME --gops N [--out-demands FILE]` — synthesize a clip
//!   of the paper's MPEG-2 workload and print (or save) its PE₂ demands;
//! * `faults --clip NAME --gops N --pe1-mhz X --pe2-mhz Y ...` — the
//!   two-PE pipeline under seeded fault injection, bounded-FIFO overflow
//!   policies and an online γᵘ envelope monitor;
//! * `sweep --pe2-mhz F,F,... --capacities C,C,... ...` — parallel
//!   design-space exploration over the `(clip × frequency × capacity ×
//!   policy × seed)` grid with analytic pruning (eqs. 8–10) and JSON/CSV
//!   reports including the frequency/capacity Pareto frontier; with
//!   `--trace-out`/`--metrics-out` the run is captured by the `wcm-obs`
//!   recorder and exported as a `chrome://tracing` trace and a metrics
//!   summary;
//! * `serve --tail FILE[,FILE] / --listen ADDR ...` — long-lived
//!   multi-tenant monitoring: tail live `.wcmt` streams, demultiplex
//!   frames into per-session workload curves + envelope monitors, and
//!   recompute the eq.-9 admission verdict per session as the curves
//!   refresh; graceful drain on SIGINT/SIGTERM with final snapshots;
//! * `validate --json/--csv/--trace/--metrics/--wcmt FILE ...` — strictly
//!   parse emitted artifacts with the in-repo zero-dependency readers;
//! * `trace encode|decode|verify ...` — convert between text traces and
//!   the versioned binary `.wcmt` wire format, decode damaged streams
//!   leniently (`--policy skip-corrupt`) and verify integrity.
//!
//! All output is plain text, one row per `k`/`Δ`, suitable for plotting.
//!
//! Exit codes are stable (see [`error::CliError::exit_code`]): 0 success,
//! 1 analysis error, 2 usage, 3 bad input file, 4 monitor violations.
//! `trace` keeps the numbers in their classes with a stream-oriented
//! reading: 0 clean, 2 empty stream, 3 malformed/truncated, 4 partial
//! decode with skipped frames.

use std::process::ExitCode;

mod args;
mod commands;
mod error;
mod io;

use error::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.wants_usage() {
                eprintln!("see `wcm-cli help` for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// A subcommand's entry point.
type Command = fn(&args::Options) -> Result<(), CliError>;

/// Every subcommand — `(name, action, entry point, accepted options)` —
/// with the options it reads. Any other option is a usage error, raised
/// while parsing, before the command does any work. Only `trace` takes a
/// positional action (`encode|decode|verify`) before its options.
const COMMANDS: &[(&str, &str, Command, &[&str])] = &[
    ("curves", "", commands::curves, &[
        "demands", "k", "exact-upto", "stride", "closure",
    ]),
    ("arrival", "", commands::arrival, &["times", "k"]),
    ("fmin", "", commands::fmin, &["times", "demands", "buffer", "k", "exact-upto", "stride"]),
    ("polling", "", commands::polling, &["period", "theta-min", "theta-max", "ep", "ec", "k"]),
    ("mpeg", "", commands::mpeg, &["clip", "gops", "out-demands", "out-bits"]),
    ("pipeline", "", commands::pipeline, &["clip", "gops", "pe1-mhz", "pe2-mhz", "capacity"]),
    ("faults", "", commands::faults, &[
        "clip", "gops", "pe1-mhz", "pe2-mhz", "capacity", "policy", "seed", "inject", "monitor", "k",
    ]),
    ("sweep", "", commands::sweep, &[
        "pe2-mhz", "capacities", "clips", "gops", "pe1-mhz", "policies", "seeds", "inject", "k",
        "exact-upto", "stride", "prune", "frontier", "threads", "json", "csv", "shard",
        "out-wcmt", "merge", "trace-out", "metrics-out",
    ]),
    ("serve", "", commands::serve, &[
        "tail", "listen", "pe2-mhz", "capacity", "k", "refresh", "policy", "session-buffer",
        "period", "jitter", "monitor", "threads", "shards", "poll-ms",
        "max-rounds", "idle-exit", "snapshots-out", "budget", "trace-out", "metrics-out",
    ]),
    ("validate", "", commands::validate, &["json", "csv", "trace", "metrics", "wcmt"]),
    ("trace", "encode", commands::trace_encode, &["out", "demands", "times", "name"]),
    ("trace", "decode", commands::trace_decode, &[
        "in", "policy", "out-demands", "out-times",
    ]),
    ("trace", "verify", commands::trace_verify, &["in"]),
];

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((cmd, mut rest)) = argv.split_first() else {
        return Err(CliError::Usage("missing subcommand".to_string()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", commands::USAGE);
        return Ok(());
    }
    let mut action = "";
    if cmd == "trace" {
        let Some((first, tail)) = rest.split_first() else {
            return Err(CliError::Usage(
                "trace: missing action (encode|decode|verify)".to_string(),
            ));
        };
        (action, rest) = (first.as_str(), tail);
    }
    let Some(&(_, _, command, accepted)) =
        COMMANDS.iter().find(|(name, act, ..)| name == cmd && *act == action)
    else {
        return Err(CliError::Usage(if cmd == "trace" {
            format!("trace: unknown action `{action}` (expected encode|decode|verify)")
        } else {
            format!("unknown subcommand `{cmd}`")
        }));
    };
    let opts = args::Options::parse(rest, accepted)?;
    // `--threads` sets the worker count for everything the command runs.
    opts.parallelism()?.scope(|| command(&opts))
}
