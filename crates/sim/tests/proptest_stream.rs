//! Streaming-sweep properties.
//!
//! For randomized small specs, the sweep's online stats and Pareto
//! frontier must match a naive oracle recomputed from the points, the
//! report must be byte-identical (JSON and CSV included) across worker
//! counts, and any shard split recombined through the `.wcmt` wire round
//! trip and [`merge_shards`] must land on the bytes of [`run_sweep`].

use proptest::prelude::*;
use wcm_events::window::WindowMode;
use wcm_mpeg::{profile::standard_clips, ClipWorkload, Synthesizer, VideoParams};
use wcm_par::Parallelism;
use wcm_sim::pipeline::OverflowPolicy;
use wcm_sim::sweep::SweepStats;
use wcm_sim::{
    merge_shards, run_sweep, run_sweep_streaming, CollectSink, Injector, ShardRange, SweepReport,
    SweepSpec, Verdict, WcmtShardSink,
};

fn clips(count: usize) -> Vec<ClipWorkload> {
    let params =
        VideoParams::new(160, 128, 25.0, 1.0e6, wcm_mpeg::GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    standard_clips()[..count]
        .iter()
        .map(|c| synth.generate(c, 1).unwrap())
        .collect()
}

/// A randomized-but-small spec: axes drawn from fixed pools so the grid
/// stays cheap while still exercising duplicates, multiple policies and
/// fault seeds.
fn spec_from(raw: &SpecRaw) -> SweepSpec {
    let freq_pool = [2.0e6, 6.0e6, 6.0e6, 20.0e6, 60.0e6];
    let cap_pool = [4u64, 80, 80, 4000];
    let policy_pool = [
        OverflowPolicy::Backpressure,
        OverflowPolicy::Reject,
        OverflowPolicy::DropByPriority,
    ];
    let seed_pool = [None, Some(11u64), Some(raw.seed)];
    SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz: freq_pool[..raw.n_freq].to_vec(),
        capacities: cap_pool[..raw.n_cap].to_vec(),
        policies: policy_pool[..raw.n_pol].to_vec(),
        seeds: seed_pool[..raw.n_seed].to_vec(),
        // The spike makes some seeded points overflow where the clean
        // stream is safe, so the frontier's clean-seed filter matters.
        injectors: vec![
            Injector::JitterBurst {
                start: 5,
                len: 60,
                max_delay_s: 0.004,
            },
            Injector::DemandSpike {
                start: 10,
                len: 500,
                factor_pct: 1000,
            },
        ],
        k_max: 400,
        mode: WindowMode::Strided {
            exact_upto: 96,
            stride: 40,
        },
        cert_depth: 300,
        prune: raw.prune,
    }
}

/// Independent oracle for a report's summary, checked point by point:
/// the points enumerate the grid in nested clip-major order, the stats
/// are recounted from their verdicts, and the frontier is the naive
/// by-value scan — an axis pair `(f, c)` is safe iff no clean point at
/// that frequency and capacity overflows, and the frontier keeps the
/// safe pairs no other safe pair strictly dominates, sorted, duplicates
/// dropped.
fn check_against_oracle(
    report: &SweepReport,
    clips: &[ClipWorkload],
    spec: &SweepSpec,
) -> Result<(), TestCaseError> {
    let mut grid = Vec::new();
    for clip in clips {
        for &f in &spec.frequencies_hz {
            for &c in &spec.capacities {
                for &pol in &spec.policies {
                    for &seed in &spec.seeds {
                        grid.push((clip.name().to_string(), f, c, pol, seed));
                    }
                }
            }
        }
    }
    let coords: Vec<_> = report
        .points
        .iter()
        .map(|p| (p.clip.clone(), p.frequency_hz, p.capacity, p.policy, p.seed))
        .collect();
    prop_assert_eq!(coords, grid);

    let mut stats = SweepStats {
        total: report.points.len(),
        ..SweepStats::default()
    };
    for p in &report.points {
        match p.verdict {
            Verdict::ProvablySafe => stats.pruned_safe += 1,
            Verdict::ProvablyUnsafe => stats.pruned_unsafe += 1,
            Verdict::SimOk | Verdict::SimOverflow => stats.simulated += 1,
            Verdict::ReplayOk => stats.replayed += 1,
        }
        stats.overflowed += usize::from(p.verdict.overflowed());
    }
    prop_assert_eq!(report.stats, stats);

    let mut safe = Vec::new();
    for &f in &spec.frequencies_hz {
        for &c in &spec.capacities {
            let overflows = report.points.iter().any(|p| {
                p.seed.is_none() && p.frequency_hz == f && p.capacity == c && p.verdict.overflowed()
            });
            if !overflows {
                safe.push((f, c));
            }
        }
    }
    let mut pareto: Vec<(f64, u64)> = safe
        .iter()
        .copied()
        .filter(|&(f, c)| {
            !safe
                .iter()
                .any(|&(f2, c2)| f2 <= f && c2 <= c && (f2 < f || c2 < c))
        })
        .collect();
    pareto.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    pareto.dedup();
    prop_assert_eq!(&report.pareto, &pareto);
    Ok(())
}

#[derive(Debug, Clone)]
struct SpecRaw {
    n_freq: usize,
    n_cap: usize,
    n_pol: usize,
    n_seed: usize,
    seed: u64,
    prune: bool,
}

fn spec_raw() -> impl Strategy<Value = SpecRaw> {
    (1usize..=5, 1usize..=4, 1usize..=3, 1usize..=3, 0u64..1000, 0u64..2).prop_map(
        |(n_freq, n_cap, n_pol, n_seed, seed, prune)| SpecRaw {
            n_freq,
            n_cap,
            n_pol,
            n_seed,
            seed,
            prune: prune == 1,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_sweep_is_byte_identical_across_worker_counts(
        raw in spec_raw(),
        n_clips in 1usize..=2,
    ) {
        let clips = clips(n_clips);
        let spec = spec_from(&raw);
        let seq = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        check_against_oracle(&seq, &clips, &spec)?;
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            let other = run_sweep(&clips, &spec, par).unwrap();
            prop_assert_eq!(&other, &seq, "{:?}: reports diverge", par);
            prop_assert_eq!(other.to_json(), seq.to_json(), "{:?}: JSON diverges", par);
            prop_assert_eq!(other.to_csv(), seq.to_csv(), "{:?}: CSV diverges", par);
        }
    }

    #[test]
    fn random_shard_splits_recombine_byte_identically(
        raw in spec_raw(),
        count in 1u32..=8,
    ) {
        let clips = clips(1);
        let spec = spec_from(&raw);
        let dense = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        let decoded: Vec<wcm_wire::Decoded> = (0..count)
            .map(|index| {
                let mut sink = WcmtShardSink::new(Vec::new()).unwrap();
                Parallelism::Threads(2)
                    .scope(|| {
                        run_sweep_streaming(&clips, &spec, ShardRange { index, count }, &mut sink)
                    })
                    .unwrap();
                let bytes = sink.finish_stream().unwrap();
                wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict).unwrap()
            })
            .collect();
        let mut sink = CollectSink::new();
        let summary = merge_shards(&decoded, &mut sink).unwrap();
        let merged = sink.into_report(&summary);
        prop_assert_eq!(&merged, &dense, "{} shards: merged report diverges", count);
        prop_assert_eq!(merged.to_json(), dense.to_json(), "{} shards: JSON", count);
        prop_assert_eq!(merged.to_csv(), dense.to_csv(), "{} shards: CSV", count);
    }
}
